"""Counted work of one sequencing click on the paper's session (Figs 6-10).

The employee object set shows its text and picture displays, with the
dept -> mgr chain open.  One ``next`` refreshes the three nodes of that
chain (paper §4.4); each node's object is read once, the status line
reads the set's position instead of searching its members, and each
display call looks at its display module with one ``stat``.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.core.navigation import SetNode
from repro.core.session import UserSession
from repro.core.sync import sequence
from repro.dynlink.registry import DisplayRegistry
from repro.ode.objectmanager import ObjectManager


@pytest.fixture
def paper_session(lab_root):
    session = UserSession(lab_root, screen_width=220)
    session.click_database_icon("lab")
    browser = session.app.session("lab").open_object_set("employee")
    session.click_control(browser, "next")
    session.click_format_button(browser, "text")
    session.click_format_button(browser, "picture")
    dept = session.click_reference_button(browser, "dept")
    session.click_format_button(dept, "text")
    mgr = session.click_reference_button(dept, "mgr")
    session.click_format_button(mgr, "text")
    session.app.render()
    yield session, browser
    session.shutdown()


def _count_calls(monkeypatch, owner, name):
    calls = Counter()
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls[str(args[0]) if args else ""] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_one_next_reads_each_refreshed_node_once(paper_session, monkeypatch):
    session, browser = paper_session
    reads = _count_calls(monkeypatch, ObjectManager, "get_buffer")
    session.click_control(browser, "next")
    assert sum(reads.values()) == 3
    assert sorted(oid.split(":")[1] for oid in reads) == [
        "department", "employee", "manager"]
    assert set(reads.values()) == {1}


def test_the_status_line_does_not_copy_the_members(paper_session,
                                                   monkeypatch):
    session, browser = paper_session
    copies = _count_calls(monkeypatch, SetNode, "members")
    session.click_control(browser, "next")
    assert not copies
    status = session.app.screen.get(browser.status_name()).content
    assert status == f"object: {browser.node.current}  [2/55]"


def test_one_stat_per_display_call(paper_session, monkeypatch):
    session, browser = paper_session
    displays = _count_calls(monkeypatch, DisplayRegistry, "display")
    display_dir = str(browser.database.display_dir)
    stats = Counter()
    original_stat = os.stat

    def counting_stat(path, *args, **kwargs):
        if str(path).startswith(display_dir):
            stats[str(path)] += 1
        return original_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    session.click_control(browser, "next")
    assert sum(displays.values()) == 4   # employee text + picture, dept, mgr
    assert sum(stats.values()) == 4


def test_a_read_after_the_click_sees_a_later_commit(lab_db):
    """Buffers kept for one click are dropped when it ends (§3.4 reopen)."""
    root = SetNode(lab_db.objects, "employee", "emp")
    root.next()
    dept = root.child("dept")
    sequence(root, "next")
    lab_db.objects.update(root.current, {"name": "renamed"})
    assert root.buffer().value("name") == "renamed"
    assert dept.current == root.buffer().value("dept")
