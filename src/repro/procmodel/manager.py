"""The process manager: spawn, route, and supervise actors.

``call`` is the one way into an actor: a click on an object panel is, in
the paper, an X event answered by one interactor process; here it is one
synchronous request/reply.

Crash containment is the managed property: ``call`` into a crashed or
crashing actor raises :class:`ProcessCrashedError`, and
``crashed_processes`` reports casualties, while every other actor stays
serviceable.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import ProcessCrashedError, ProcessError
from repro.procmodel.actor import Actor, ActorState


class ProcessManager:
    """Registry and supervisor for the actor collection."""

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

    # -- requests -----------------------------------------------------------------

    def call(self, name: str, kind: str, **payload) -> Any:
        """Synchronous request/reply to one actor, crash-isolated.

        An exception in the handler crashes this actor only and
        re-raises as :class:`ProcessCrashedError`; the rest of the actor
        system is untouched.
        """
        actor = self.get(name)
        if actor.state is ActorState.CRASHED:
            raise ProcessCrashedError(
                f"process {name!r} has crashed: {actor.crash_reason}"
            )
        if actor.state is ActorState.STOPPED:
            raise ProcessError(f"process {name!r} is stopped")
        try:
            return actor.handle(kind, payload)
        except Exception as exc:
            actor.state = ActorState.CRASHED
            actor.crash_reason = f"{type(exc).__name__}: {exc}"
            raise ProcessCrashedError(
                f"process {name!r} crashed handling "
                f"{kind!r}: {actor.crash_reason}"
            ) from exc

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
