"""Snapshot membership and values against a plain model, across
interleavings.

A hypothesis rule-based state machine drives one :class:`ObjectStore`
through inserts (out of order, and re-inserts of deleted numbers),
deletes, updates, multi-operation transactions that commit or abort,
snapshots that open, refresh and close at any point, ``vacuum`` and
close-and-reopen.  The model is, per epoch, the ``x`` last committed for
each member.  After every step the live view and every open snapshot
must answer every membership read — the whole list, size, first/last,
each ``after``/``before`` step, a bounded range, cluster names, all
OIDs — and every ``get`` exactly as the model of their epoch does.  With
no snapshot open the store must hold no version chain: the pages hold
every value, and the buffer pool is the only read cache.

``MEMBERSHIP_EXAMPLES`` raises the example budget (CI's tier-2 job);
``--hypothesis-seed`` replays a run.
"""

import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.ode.cluster import Cluster
from repro.ode.codec import decode_object, encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore

CLUSTERS = ["a", "b"]
NUMBERS = st.integers(0, 11)   # small: collisions, gaps and re-inserts
OIDS = st.builds(Oid, st.just("db"), st.sampled_from(CLUSTERS), NUMBERS)


class MembershipMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="membership-prop-"))
        self.store = ObjectStore(self.directory / "db")
        # cluster -> {number: x}, as committed
        self.live = {name: {} for name in CLUSTERS}
        self.at_epoch = {self.store.epoch: self._frozen()}
        self.snapshots = []
        self.writes = 0

    def _frozen(self):
        return {name: dict(members) for name, members in self.live.items()}

    def _write(self, oid, members):
        """Put a fresh ``x`` for *oid* and note it in *members*."""
        self.writes += 1
        self.store.put(oid, encode_object(oid, oid.cluster, {"x": self.writes}))
        members[oid.number] = self.writes

    def _committed(self):
        self.at_epoch[self.store.epoch] = self._frozen()

    # -- writes --------------------------------------------------------------

    @rule(oid=OIDS)
    def put(self, oid):
        """Insert (any order, re-inserts included) or update."""
        self._write(oid, self.live[oid.cluster])
        self._committed()

    @rule(oid=OIDS)
    def delete(self, oid):
        if oid.number in self.live[oid.cluster]:
            self.store.delete(oid)
            del self.live[oid.cluster][oid.number]
            self._committed()

    @rule(cluster=st.sampled_from(CLUSTERS))
    def empty_cluster(self, cluster):
        """One transaction deleting every member (refilled by later puts)."""
        if self.live[cluster]:
            self.store.begin()
            for number in sorted(self.live[cluster]):
                self.store.delete(Oid("db", cluster, number))
            self.store.commit()
            self.live[cluster].clear()
            self._committed()

    @rule(ops=st.lists(st.tuples(OIDS, st.booleans()), min_size=1, max_size=8),
          commit=st.booleans())
    def transaction(self, ops, commit):
        staged = self._frozen()
        self.store.begin()
        for oid, present in ops:
            if present:
                self._write(oid, staged[oid.cluster])
            elif oid.number in staged[oid.cluster]:
                self.store.delete(oid)
                del staged[oid.cluster][oid.number]
        if commit:
            self.store.commit()
            self.live = staged
            self._committed()
        else:
            self.store.abort()

    # -- readers ---------------------------------------------------------------

    @precondition(lambda self: len(self.snapshots) < 4)
    @rule()
    def open_snapshot(self):
        self.snapshots.append(self.store.snapshot())

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def refresh_snapshot(self, data):
        data.draw(st.sampled_from(self.snapshots)).refresh()

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def close_snapshot(self, data):
        index = data.draw(st.integers(0, len(self.snapshots) - 1))
        self.snapshots.pop(index).close()

    # -- maintenance -------------------------------------------------------------

    @rule()
    def vacuum(self):
        self.store.vacuum()

    @rule()
    def reopen(self):
        for snapshot in self.snapshots:
            snapshot.close()
        self.snapshots = []
        self.store.close()
        self.store = ObjectStore(self.directory / "db")

    # -- the invariants ----------------------------------------------------------

    def _views(self):
        views = [(self.store, self.live)]
        views += [(snap, self.at_epoch[snap.epoch]) for snap in self.snapshots]
        return views

    @invariant()
    def every_view_matches_its_epoch(self):
        for reader, expected in self._views():
            for name in CLUSTERS:
                members = sorted(expected[name])
                cluster = Cluster(reader, "db", name)
                assert cluster.numbers() == members, (reader, name)
                assert len(cluster) == len(members)
                assert cluster.first() == (
                    cluster.oid(members[0]) if members else None)
                assert cluster.last() == (
                    cluster.oid(members[-1]) if members else None)
                for k in range(0, 13):   # in and between members, past the end
                    later = [n for n in members if n > k]
                    earlier = [n for n in members if n < k]
                    assert cluster.after(k) == (
                        cluster.oid(later[0]) if later else None)
                    assert cluster.before(k) == (
                        cluster.oid(earlier[-1]) if earlier else None)
                    assert cluster.range(k, 3) == later[:3]
            names = sorted(name for name in CLUSTERS if expected[name])
            assert reader.cluster_names(include_shadow=True) == names
            assert list(reader.oids()) == [
                Oid("db", name, number)
                for name in names for number in sorted(expected[name])]

    @invariant()
    def every_view_reads_its_epochs_values(self):
        for reader, expected in self._views():
            for name in CLUSTERS:
                for number in range(12):
                    oid = Oid("db", name, number)
                    x = expected[name].get(number)
                    assert reader.exists(oid) == (x is not None), (reader, oid)
                    if x is not None:
                        _oid, _cls, values = decode_object(reader.get(oid))
                        assert values["x"] == x, (reader, oid)

    @invariant()
    def no_chain_without_a_pin(self):
        if not self.snapshots:
            assert not self.store._mvcc._chains

    def teardown(self):
        for snapshot in self.snapshots:
            snapshot.close()
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


MembershipMachine.TestCase.settings = settings(
    max_examples=int(os.environ.get("MEMBERSHIP_EXAMPLES", "30")),
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestMembershipProperty = MembershipMachine.TestCase
