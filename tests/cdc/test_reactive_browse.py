"""ReactiveBrowse: server push refreshes a displayed network.

The paper's browsers re-render when the user sequences; reactive
browsing closes the loop the other way — a *commit* anywhere re-renders
every browser displaying the changed data, without polling.  Events
cross from the network thread to the UI thread via DataChanged on the
event loop; ``apply_pending`` then refreshes only the touched subtrees.
"""

from __future__ import annotations

import time

import pytest

from repro.core.navigation import SetNode
from repro.core.sync import ReactiveBrowse
from repro.errors import OdeViewError
from repro.windowing.events import DataChanged, EventLoop


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


@pytest.fixture
def network(remote_lab):
    """employee -> dept, the Figure 9 shape over the wire."""
    root = SetNode(remote_lab.objects, "employee", "emp")
    root.next()
    root.child("dept")
    return root


def test_local_database_is_rejected(lab_db):
    root = SetNode(lab_db.objects, "employee", "emp")
    with pytest.raises(OdeViewError):
        ReactiveBrowse(root, lab_db)


def test_commit_posts_data_changed_to_the_event_loop(network, remote_lab,
                                                     writer_lab):
    loop = EventLoop()
    with ReactiveBrowse(network, remote_lab, event_loop=loop) as browse:
        oid = writer_lab.objects.cluster("employee").first()
        buffer = writer_lab.objects.get_buffer(oid)
        writer_lab.objects.update(oid, {"name": buffer.value("name")})
        _wait_until(lambda: loop.pending() > 0)
        event = loop.dispatch_one()
        assert isinstance(event, DataChanged)
        assert event.window == "emp"
        assert "employee" in event.clusters and not event.resync
        assert browse.pending() >= 1


def test_apply_pending_refreshes_touched_subtree(network, remote_lab,
                                                 writer_lab):
    with ReactiveBrowse(network, remote_lab) as browse:
        current = network.current
        oid = writer_lab.objects.cluster("employee").first()
        writer_lab.objects.update(oid, {"name": "reactively-renamed"})
        _wait_until(lambda: browse.pending() >= 1)
        refreshed = browse.apply_pending()
        assert "emp" in refreshed
        assert network.current == current  # display kept its place
        assert network.buffer().value("name") == "reactively-renamed"
        assert browse.pending() == 0
        assert browse.apply_pending() == ()  # idempotent when drained


def test_untouched_clusters_do_not_refresh(network, remote_lab, writer_lab):
    with ReactiveBrowse(network, remote_lab) as browse:
        department = writer_lab.objects.cluster("department").first()
        writer_lab.objects.update(department, {})
        _wait_until(lambda: browse.pending() >= 1)
        refreshed = browse.apply_pending()
        # the shallowest touched node is emp.dept; the employee set
        # itself did not change and is not re-pulled
        assert "emp" not in refreshed
        assert "emp.dept" in refreshed


def test_event_loop_handler_drives_the_refresh(network, remote_lab,
                                               writer_lab):
    """The intended wiring: the DataChanged handler calls apply_pending."""
    loop = EventLoop()
    refreshed_log = []
    with ReactiveBrowse(network, remote_lab, event_loop=loop) as browse:
        loop.on("emp", lambda _e: refreshed_log.append(
            browse.apply_pending()))
        oid = writer_lab.objects.cluster("employee").first()
        writer_lab.objects.update(oid, {"name": "handler-driven"})
        _wait_until(lambda: loop.pending() > 0)
        loop.run()
        assert refreshed_log and "emp" in refreshed_log[0]
        assert network.buffer().value("name") == "handler-driven"


def test_vanished_current_lands_on_first_member(remote_lab, writer_lab):
    root = SetNode(remote_lab.objects, "employee", "emp")
    root.next()
    with ReactiveBrowse(root, remote_lab) as browse:
        doomed = root.current
        writer_lab.objects.delete(doomed)
        _wait_until(lambda: browse.pending() >= 1)
        browse.apply_pending()
        assert root.current is not None and root.current != doomed
        assert root.current == root.members()[0]


def test_close_detaches_the_subscription(network, remote_lab, served_lab):
    browse = ReactiveBrowse(network, remote_lab)
    assert browse.alive
    _wait_until(lambda: served_lab.hosted("lab").subscribers == 1)
    browse.close()
    assert not browse.alive
    _wait_until(lambda: served_lab.hosted("lab").subscribers == 0)


def test_a_pushed_change_copies_no_members(network, remote_lab, writer_lab,
                                           monkeypatch):
    """The refreshed set node keeps its place without copying its
    members: one search of the reloaded list finds the current one."""
    copies = []
    original = SetNode.members

    def counting(self):
        copies.append(self.path)
        return original(self)

    with ReactiveBrowse(network, remote_lab) as browse:
        current = network.current
        writer_lab.objects.update(current, {"name": "pushed"})
        _wait_until(lambda: browse.pending() >= 1)
        monkeypatch.setattr(SetNode, "members", counting)
        assert "emp" in browse.apply_pending()
        assert copies == []
        assert network.current == current
        assert network.buffer().value("name") == "pushed"
