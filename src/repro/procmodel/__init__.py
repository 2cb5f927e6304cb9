"""Actor-based reproduction of OdeView's UNIX process structure."""

from repro.procmodel.actor import Actor, ActorState
from repro.procmodel.interactors import DbInteractor, ObjectInteractor
from repro.procmodel.manager import ProcessManager

__all__ = [
    "Actor",
    "ActorState",
    "DbInteractor",
    "ObjectInteractor",
    "ProcessManager",
]
