"""Property-based check of the BufferCache CDC delta algebra.

Random interleavings of server writes, (possibly lagging) reads, delta
deliveries, and overflow resyncs, against a ground-truth model.  Two
invariants must hold at every step:

* **freshness** — a served buffer is never older than the point the
  contiguous delta stream has been consumed through: its tag is at or
  above the cache floor, and the floor never falls below the delta
  basis.  A read served by a lagging replica (tagged below the basis)
  must therefore never be served back.
* **precision** — ``apply_delta`` evicts at most the OIDs the delta
  names: every entry certified at or above the basis and not named
  survives the delta.  This is the whole point of CDC: a push must not
  degrade into a wholesale flush.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.net.remote import BufferCache
from repro.ode.oid import Oid


@dataclass(frozen=True)
class _Buf:
    oid: Oid
    value: int


_OIDS = [Oid("db", "emp", number) for number in range(8)]


def _op():
    oid_index = st.integers(min_value=0, max_value=len(_OIDS) - 1)
    return st.one_of(
        st.tuples(st.just("write"), oid_index),
        st.tuples(st.just("fetch"), oid_index,
                  st.integers(min_value=0, max_value=15)),
        st.tuples(st.just("deliver")),
        st.tuples(st.just("overflow")),
        st.tuples(st.just("check"), oid_index),
    )


class _Model:
    """Ground truth the cache is checked against."""

    def __init__(self):
        self.epoch = 10
        self.history = {oid: [(0, 0)] for oid in _OIDS}  # (epoch, value)
        self.pending = []  # committed deltas not yet pushed: (epoch, [oid])

    def write(self, oid: Oid) -> None:
        self.epoch += 1
        self.history[oid].append((self.epoch, self.epoch))
        self.pending.append((self.epoch, [str(oid)]))

    def value_as_of(self, oid: Oid, epoch: int) -> int:
        value = 0
        for written_at, written_value in self.history[oid]:
            if written_at <= epoch:
                value = written_value
        return value


@settings(max_examples=60, deadline=None)
@given(st.lists(_op(), max_size=60))
def test_cache_is_fresh_and_precise_under_any_interleaving(ops):
    model = _Model()
    cache = BufferCache()
    cache.observe_epoch(model.epoch)
    cache.begin_deltas(model.epoch)  # subscription acked at the current tip

    for op in ops:
        if op[0] == "write":
            model.write(_OIDS[op[1]])
        elif op[0] == "fetch":
            # A server reply — possibly from a replica lagging by op[2]
            # epochs — lands in the cache tagged with the epoch it was
            # served at, carrying the value as of that epoch.
            oid = _OIDS[op[1]]
            served_at = max(0, model.epoch - op[2])
            cache.put(_Buf(oid, model.value_as_of(oid, served_at)),
                      served_at)
        elif op[0] == "deliver":
            if model.pending:
                epoch, oids = model.pending.pop(0)
                survivors_owed = {
                    key for key, (tag, _buf) in cache._entries.items()
                    if tag >= (cache.cdc_epoch or 0)
                    and str(key) not in oids
                }
                cache.apply_delta(epoch, oids)
                # precision: nothing the delta did not name was purged
                assert survivors_owed <= set(cache._entries)
        elif op[0] == "overflow":
            if model.pending:
                newest = model.pending[-1][0]
                model.pending.clear()
                cache.note_resync(newest)
        else:  # check
            oid = _OIDS[op[1]]
            buffer = cache.get(oid)
            basis = cache.cdc_epoch
            assert basis is not None
            # the floor never falls below the consumed-through basis
            assert cache.floor >= basis
            if buffer is not None:
                tag, _stored = cache._entries[oid]
                # freshness: a served entry sits at or above the floor,
                # hence at or above the basis — a stale replica read
                # can never be served back
                assert tag >= cache.floor >= basis
                assert buffer.value == model.value_as_of(oid, tag)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=len(_OIDS) - 1),
                min_size=1, max_size=30))
def test_contiguous_delivery_converges_to_ground_truth(writes):
    """Deliver every delta in order: afterwards any warm read through
    the cache returns the current value for every object."""
    model = _Model()
    cache = BufferCache()
    cache.observe_epoch(model.epoch)
    cache.begin_deltas(model.epoch)
    for oid in _OIDS:  # warm at the basis
        cache.put(_Buf(oid, model.value_as_of(oid, model.epoch)),
                  model.epoch)
    for index in writes:
        model.write(_OIDS[index])
    while model.pending:
        epoch, oids = model.pending.pop(0)
        cache.apply_delta(epoch, oids)
    for oid in _OIDS:
        buffer = cache.get(oid)
        if buffer is not None:  # an un-evicted entry must be current
            assert buffer.value == model.value_as_of(oid, model.epoch)
        else:  # evicted entries are exactly the written ones
            assert any(_OIDS[i] == oid for i in writes)
