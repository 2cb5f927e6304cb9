"""Tests for actors and crash isolation."""

import pytest

from repro.errors import ProcessCrashedError, ProcessError
from repro.procmodel.actor import Actor, ActorState
from repro.procmodel.manager import ProcessManager


class Echo(Actor):
    def handle(self, kind, payload):
        if kind == "boom":
            raise RuntimeError("designer bug")
        return payload.get("value")


@pytest.fixture
def manager():
    return ProcessManager()


def test_crash_flips_state_and_records_reason(manager):
    actor = manager.spawn(Echo("e"))
    with pytest.raises(ProcessCrashedError):
        manager.call("e", "boom")
    assert actor.state is ActorState.CRASHED
    assert "designer bug" in actor.crash_reason


def test_deliver_to_crashed_actor_rejected(manager):
    manager.spawn(Echo("e"))
    with pytest.raises(ProcessCrashedError, match="crashed handling 'boom'"):
        manager.call("e", "boom")
    with pytest.raises(ProcessCrashedError, match="has crashed: RuntimeError"):
        manager.call("e", "echo", value=1)


def test_step_crashed_actor_rejected(manager):
    """A crashed actor's handler is never entered again."""
    actor = manager.spawn(Echo("e"))
    with pytest.raises(ProcessCrashedError):
        manager.call("e", "boom")
    actor.handle = lambda kind, payload: pytest.fail("handler entered")
    with pytest.raises(ProcessError):
        manager.call("e", "echo", value=1)


def test_stop(manager):
    actor = manager.spawn(Echo("e"))
    actor.stop()
    assert actor.state is ActorState.STOPPED
    with pytest.raises(ProcessError, match="is stopped"):
        manager.call("e", "echo")


def test_unnamed_actor_rejected():
    with pytest.raises(ProcessError):
        Echo("")
