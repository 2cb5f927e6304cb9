"""Actors: the reproduction of OdeView's UNIX process structure.

"OdeView has been implemented as a collection of UNIX processes" (paper
§4.6): one master, a *db-interactor* per open database, an
*object-interactor* per browsed class.  The point of the separation is
failure isolation — "if there are bugs in this [display-function] code,
then only the corresponding object-interactor process will be affected but
not the whole OdeView".

We reproduce the structure with in-process actors: each has a ``handle``
method that :meth:`ProcessManager.call
<repro.procmodel.manager.ProcessManager.call>` runs inside a crash
boundary.  An unhandled exception in ``handle`` *crashes that actor only*
— its state flips to CRASHED, the crash reason is recorded, and later
calls to it fail with :class:`ProcessCrashedError` while every other actor
keeps running.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from repro.errors import ProcessError


class ActorState(enum.Enum):
    ALIVE = "alive"
    CRASHED = "crashed"
    STOPPED = "stopped"


class Actor:
    """Base class for processes.  Subclasses implement :meth:`handle`."""

    def __init__(self, name: str):
        if not name:
            raise ProcessError("actor needs a name")
        self.name = name
        self.state = ActorState.ALIVE
        self.crash_reason: Optional[str] = None

    def handle(self, kind: str, payload: Dict[str, Any]) -> Any:
        """Answer one request; the return value is the reply."""
        raise NotImplementedError

    @property
    def alive(self) -> bool:
        return self.state is ActorState.ALIVE

    def stop(self) -> None:
        self.state = ActorState.STOPPED

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.state.value})"
