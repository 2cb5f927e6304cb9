"""Tests for the process manager (supervision and containment)."""

import pytest

from repro.errors import ProcessCrashedError, ProcessError
from repro.procmodel.actor import Actor
from repro.procmodel.manager import ProcessManager


class Worker(Actor):
    def handle(self, kind, payload):
        if kind == "boom":
            raise RuntimeError("bug")
        if kind == "add":
            return payload["a"] + payload["b"]
        return kind


@pytest.fixture
def manager():
    return ProcessManager()


def test_spawn_and_call(manager):
    manager.spawn(Worker("w"))
    assert manager.call("w", "add", a=2, b=3) == 5


def test_duplicate_spawn_rejected(manager):
    manager.spawn(Worker("w"))
    with pytest.raises(ProcessError):
        manager.spawn(Worker("w"))


def test_unknown_process_rejected(manager):
    with pytest.raises(ProcessError):
        manager.call("ghost", "ping")


def test_crash_contained_to_one_actor(manager):
    manager.spawn(Worker("a"))
    manager.spawn(Worker("b"))
    with pytest.raises(ProcessCrashedError):
        manager.call("a", "boom")
    assert [p.name for p in manager.crashed_processes()] == ["a"]
    assert manager.call("b", "ping") == "ping"  # b unaffected


def test_restart_replaces_crashed_actor(manager):
    manager.spawn(Worker("w"))
    with pytest.raises(ProcessCrashedError):
        manager.call("w", "boom")
    manager.restart("w", lambda: Worker("w"))
    assert manager.call("w", "ping") == "ping"
    assert manager.crashed_processes() == []


def test_restart_alive_actor_rejected(manager):
    manager.spawn(Worker("w"))
    with pytest.raises(ProcessError):
        manager.restart("w", lambda: Worker("w"))


def test_restart_factory_name_checked(manager):
    manager.spawn(Worker("w"))
    with pytest.raises(ProcessCrashedError):
        manager.call("w", "boom")
    with pytest.raises(ProcessError):
        manager.restart("w", lambda: Worker("other"))


def test_spawn_over_crashed_actor_allowed(manager):
    manager.spawn(Worker("w"))
    with pytest.raises(ProcessCrashedError):
        manager.call("w", "boom")
    manager.spawn(Worker("w"))  # restart semantics
    assert manager.call("w", "ping") == "ping"


def test_kill_and_remove(manager):
    manager.spawn(Worker("w"))
    manager.kill("w")
    assert not manager.get("w").alive
    manager.remove("w")
    assert not manager.has("w")


def test_listings(manager):
    manager.spawn(Worker("a"))
    manager.spawn(Worker("b"))
    with pytest.raises(ProcessCrashedError):
        manager.call("a", "boom")
    assert [p.name for p in manager.alive_processes()] == ["b"]
    assert len(manager.processes()) == 2
