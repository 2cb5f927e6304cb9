"""The process manager: spawn, route, and supervise actors.

Provides both mailbox-style asynchronous delivery (``send`` + ``step_all``)
and the synchronous request/reply (``call``) the OdeView front end uses —
a click on an object panel is, in the paper, an X event answered by one
interactor process; here it is one ``call``.

Crash containment is the managed property: ``call`` into a crashed or
crashing actor raises :class:`ProcessCrashedError`, and
``crashed_processes`` reports casualties, while every other actor stays
serviceable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ProcessCrashedError, ProcessError
from repro.procmodel.actor import Actor, ActorState, Message


class ProcessManager:
    """Registry and scheduler for the actor collection."""

    def __init__(self) -> None:
        self._actors: Dict[str, Actor] = {}

    # -- lifecycle ------------------------------------------------------------

    def spawn(self, actor: Actor) -> Actor:
        if actor.name in self._actors:
            existing = self._actors[actor.name]
            if existing.state is ActorState.ALIVE:
                raise ProcessError(f"process {actor.name!r} already exists")
            # replace a crashed/stopped predecessor (restart semantics)
        self._actors[actor.name] = actor
        return actor

    def get(self, name: str) -> Actor:
        try:
            return self._actors[name]
        except KeyError:
            raise ProcessError(f"no process named {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._actors

    def kill(self, name: str) -> None:
        self.get(name).stop()

    def remove(self, name: str) -> None:
        actor = self.get(name)
        actor.stop()
        del self._actors[name]

    # -- messaging ----------------------------------------------------------------

    def send(self, name: str, message: Message) -> None:
        self.get(name).deliver(message)

    def call(self, name: str, kind: str, **payload) -> Any:
        """Synchronous request/reply to one actor."""
        actor = self.get(name)
        actor.deliver(Message(kind=kind, payload=payload))
        return actor.step()

    def step_all(self, max_rounds: int = 1000) -> int:
        """Drain every mailbox; crashed actors keep their queued mail."""
        steps = 0
        for _round in range(max_rounds):
            progressed = False
            for actor in list(self._actors.values()):
                if actor.alive and actor.inbox:
                    try:
                        actor.step()
                    except ProcessCrashedError:
                        pass  # contained: supervisor keeps running
                    steps += 1
                    progressed = True
            if not progressed:
                return steps
        raise ProcessError(f"actor system did not quiesce in {max_rounds} rounds")

    # -- supervision ------------------------------------------------------------------

    def processes(self) -> List[Actor]:
        return list(self._actors.values())

    def alive_processes(self) -> List[Actor]:
        return [actor for actor in self._actors.values() if actor.alive]

    def crashed_processes(self) -> List[Actor]:
        return [
            actor for actor in self._actors.values()
            if actor.state is ActorState.CRASHED
        ]

    def restart(self, name: str, factory) -> Actor:
        """Replace a crashed actor with a fresh one from *factory*."""
        old = self.get(name)
        if old.state is ActorState.ALIVE:
            raise ProcessError(f"process {name!r} is alive; not restarting")
        del self._actors[name]
        fresh = factory()
        if fresh.name != name:
            raise ProcessError(
                f"restart factory produced {fresh.name!r}, expected {name!r}"
            )
        return self.spawn(fresh)
