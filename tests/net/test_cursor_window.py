"""Windowed sequencing cursors: the remote cursor against the local one.

A remote cursor holds its position on the client and steps through a
window of member numbers the server read from the cursor's pinned
snapshot in one ``OP_CURSOR_NEXT`` / ``OP_CURSOR_PREVIOUS`` round trip.
The counted tests pin what a walk costs in round trips.  The state
machine drives a :class:`~repro.net.remote.RemoteCursor` and a local
:class:`~repro.ode.cluster.SnapshotCursor` over the same served lab
database through next, previous, seek, reset and current, with commits
from another session interleaved, and checks:

* both cursors give the same answers, at the same epoch;
* every answer is the model's member list at the cursor's epoch — no
  commit newer than that epoch shows before ``reset``;
* at either end a step answers ``None`` and keeps the position.

``CURSOR_EXAMPLES`` raises the example budget (CI's tier-2 job);
``--hypothesis-seed`` replays a run.
"""

import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.data.labdb import make_lab_database
from repro.errors import SessionLostError, StorageError
from repro.net import protocol as P
from repro.net import remote
from repro.net.remote import SCAN_BATCH, RemoteDatabase
from repro.net.server import OdeServer
from repro.ode.oid import Oid


def _opcodes(calls):
    counts = {}
    for opcode, _payload in calls:
        counts[opcode] = counts.get(opcode, 0) + 1
    return counts


class TestCountedRoundTrips:
    def test_seek_and_eight_steps_are_one_window(
            self, remote_staff, count_calls):
        cursor = remote_staff.objects.cursor("employee")
        calls = count_calls(remote_staff)
        cursor.seek(Oid("lab", "employee", 100))
        for step in range(1, 9):
            assert cursor.next() == Oid("lab", "employee", 100 + step)
        assert cursor.current() == Oid("lab", "employee", 108)
        assert _opcodes(calls) == {P.OP_CURSOR_NEXT: 1}

    def test_a_hundred_steps_from_the_start_are_two_windows(
            self, remote_staff, count_calls):
        cursor = remote_staff.objects.cursor("employee")
        calls = count_calls(remote_staff)
        walked = [cursor.next().number for _ in range(100)]
        assert walked == list(range(100))
        assert _opcodes(calls) == {P.OP_CURSOR_NEXT: 2}
        assert SCAN_BATCH == 64

    def test_stepping_back_inside_the_window_is_free(
            self, remote_staff, count_calls):
        cursor = remote_staff.objects.cursor("employee")
        for _ in range(10):
            cursor.next()
        calls = count_calls(remote_staff)
        assert [cursor.previous().number for _ in range(9)] == list(
            range(8, -1, -1))
        assert cursor.previous() is None
        assert cursor.current() == Oid("lab", "employee", 0)
        assert _opcodes(calls) == {}

    def test_a_walk_to_the_end_reads_each_member_once(
            self, remote_staff, count_calls):
        cursor = remote_staff.objects.cursor("employee")
        calls = count_calls(remote_staff)
        walked = []
        while (oid := cursor.next()) is not None:
            walked.append(oid.number)
        assert walked == list(range(700))
        assert cursor.next() is None   # a short window reached the end
        assert cursor.current() == Oid("lab", "employee", 699)
        assert _opcodes(calls) == {P.OP_CURSOR_NEXT: 11}   # 10 x 64 + 60


class TestWindowBoundaries:
    def test_previous_on_a_fresh_cursor_is_none_without_a_call(
            self, remote_lab, count_calls):
        cursor = remote_lab.objects.cursor("employee")
        calls = count_calls(remote_lab)
        assert cursor.previous() is None
        assert cursor.current() is None
        assert _opcodes(calls) == {}

    def test_backward_window_from_a_seek(
            self, remote_staff, count_calls):
        cursor = remote_staff.objects.cursor("employee")
        cursor.seek(Oid("lab", "employee", 150))
        calls = count_calls(remote_staff)
        walked = [cursor.previous().number for _ in range(80)]
        assert walked == list(range(149, 69, -1))
        assert _opcodes(calls) == {P.OP_CURSOR_PREVIOUS: 2}

    @pytest.mark.parametrize("fill_forward", [True, False])
    def test_steps_around_window_edges_match_the_local_cursor(
            self, served_lab, remote_lab, monkeypatch, fill_forward):
        """Fill a window from each start, seek to each point around its
        edges, step either way: the answer is the local cursor's."""
        monkeypatch.setattr(remote, "SCAN_BATCH", 4)
        pair = (remote_lab.objects.cursor("employee"),
                served_lab.hosted("lab").database.objects.cursor("employee"))
        for start in range(0, 12):
            for target in range(max(0, start - 6), start + 7):
                for forward in (True, False):
                    answers = []
                    for cursor in pair:
                        cursor.reset()
                        cursor.seek(Oid("lab", "employee", start))
                        if fill_forward:
                            cursor.next()
                        else:
                            cursor.previous()
                        cursor.seek(Oid("lab", "employee", target))
                        answers.append(cursor.next() if forward
                                       else cursor.previous())
                    assert answers[0] == answers[1], (start, target, forward)

    def test_seek_to_another_cluster_raises(
            self, remote_lab, count_calls):
        cursor = remote_lab.objects.cursor("employee")
        calls = count_calls(remote_lab)
        with pytest.raises(StorageError, match="cannot seek"):
            cursor.seek(Oid("lab", "department", 0))
        assert _opcodes(calls) == {}

    def test_reset_clears_position_and_window(
            self, remote_lab, count_calls):
        cursor = remote_lab.objects.cursor("employee")
        first = cursor.next()
        cursor.next()
        calls = count_calls(remote_lab)
        cursor.reset()
        assert cursor.current() is None
        assert cursor.next() == first
        assert _opcodes(calls) == {P.OP_CURSOR_RESET: 1, P.OP_CURSOR_NEXT: 1}

    def test_lost_session_raises_even_inside_the_window(self, remote_lab):
        cursor = remote_lab.objects.cursor("employee")
        cursor.next()   # the window now holds the whole cluster
        remote_lab.client._sock.close()
        assert remote_lab.objects.count("employee") == 55   # reconnects
        for step in (cursor.next, cursor.previous, cursor.current):
            with pytest.raises(SessionLostError):
                step()


# -- the state machine -------------------------------------------------------------

NUMBERS = st.integers(0, 70)   # members, gaps, inserts and past the end


class CursorMachine(RuleBasedStateMachine):
    """The pair of cursors; commits insert, rename and delete."""

    #: Member numbers per window: small, so that walks cross windows.
    WINDOW = 4

    def __init__(self):
        super().__init__()
        self.scan_batch = remote.SCAN_BATCH
        remote.SCAN_BATCH = self.WINDOW
        self.root = Path(tempfile.mkdtemp(prefix="cursor-window-"))
        make_lab_database(self.root).close()
        self.server = OdeServer(self.root)
        self.server.start()
        self.remote = RemoteDatabase.connect(
            "127.0.0.1", self.server.port, "lab")
        self.writer = RemoteDatabase.connect(
            "127.0.0.1", self.server.port, "lab")
        database = self.server.hosted("lab").database
        self.store = database.store
        self.local = database.objects.cursor("employee")
        self.cursor = self.remote.objects.cursor("employee")
        # the model: epoch -> {member number: id}; ids never change
        members = {oid.number: database.objects.get_buffer(oid).value("id")
                   for oid in database.objects.cluster("employee").oids()}
        self.live = members
        self.history = {self.store.epoch: members}
        self.position = None
        self.next_id = 1000

    # -- commits from another session ---------------------------------------------

    def _committed(self, members):
        self.live = members
        self.history[self.store.epoch] = members

    @rule()
    def insert(self):
        self.next_id += 1
        oid = self.writer.objects.new_object(
            "employee", {"id": self.next_id, "name": "new"})
        self._committed({**self.live, oid.number: self.next_id})

    @rule(number=NUMBERS)
    def rename(self, number):
        if number in self.live:
            self.writer.objects.update(
                Oid("lab", "employee", number), {"name": f"n{number}"})
            self._committed(dict(self.live))

    @rule(number=NUMBERS)
    def delete(self, number):
        if number in self.live:
            self.writer.objects.delete(Oid("lab", "employee", number))
            members = dict(self.live)
            del members[number]
            self._committed(members)

    # -- the cursors ------------------------------------------------------------------

    def _expected(self, forward):
        """The model's answer to one step at the cursors' epoch."""
        members = self.history[self.cursor.epoch]
        if self.position is None and not forward:
            return None
        point = -1 if self.position is None else self.position
        past = sorted((n for n in members
                       if (n > point if forward else n < point)),
                      reverse=not forward)
        return next(iter(past), None)

    def _step(self, forward):
        expected = self._expected(forward)
        before = self.cursor.current()
        got = self.cursor.next() if forward else self.cursor.previous()
        local = self.local.next() if forward else self.local.previous()
        assert got == local
        assert (got.number if got else None) == expected
        if got is None:
            assert self.cursor.current() == before   # position kept
        else:
            self.position = got.number

    @rule()
    def next(self):
        self._step(True)

    @rule()
    def previous(self):
        self._step(False)

    def _seek(self, number):
        oid = Oid("lab", "employee", number)
        self.cursor.seek(oid)
        self.local.seek(oid)
        self.position = number

    @rule(number=NUMBERS)
    def seek(self, number):
        self._seek(number)

    @rule(delta=st.integers(-3, 3))
    def seek_near(self, delta):
        """A seek just past where the walk is: near a window's edge."""
        self._seek(max(0, (self.position or 0) + delta))

    @rule()
    def seek_elsewhere(self):
        oid = Oid("lab", "department", 0)
        for cursor in (self.cursor, self.local):
            with pytest.raises(StorageError):
                cursor.seek(oid)

    @rule()
    def reset(self):
        self.cursor.reset()
        self.local.reset()
        self.position = None
        assert self.cursor.epoch == self.store.epoch

    @rule()
    def current(self):
        got = self.cursor.current()
        assert got == self.local.current()
        assert got == (None if self.position is None
                       else Oid("lab", "employee", self.position))

    @invariant()
    def one_pinned_epoch_until_reset(self):
        assert self.cursor.epoch == self.local.epoch
        assert self.cursor.epoch in self.history

    def teardown(self):
        self.local.close()
        self.remote.close()
        self.writer.close()
        self.server.shutdown()
        shutil.rmtree(self.root, ignore_errors=True)
        remote.SCAN_BATCH = self.scan_batch


_SETTINGS = settings(
    max_examples=int(os.environ.get("CURSOR_EXAMPLES", "25")),
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
CursorMachine.TestCase.settings = _SETTINGS

TestCursorEquivalence = CursorMachine.TestCase
