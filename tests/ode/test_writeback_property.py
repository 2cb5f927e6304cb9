"""Batched write-back against a plain model, with a transient fault.

Hypothesis draws a pool of 1-8 frames, a sequence of transactions of
puts (inserts and overwrites, a few large enough to fragment), deletes
and reads after a fill of more pages than the pool holds, and one
write-back crossing — the journal write, the journal
sync, a page write or the page sync — at which a transient
:class:`~repro.errors.FaultInjectedError` fires.  A transaction the
fault interrupts must land whole or not at all; then:

* every object reads back as the model says;
* no frame the pool holds clean differs from its page on disk (a failed
  batch marks nothing clean);
* after a close and a reopen without the gate, the store equals the
  model.

``WRITEBACK_EXAMPLES`` raises the example budget; ``--hypothesis-seed``
replays a run (CI's tier-2 job searches with a fresh seed).
"""

import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FaultInjectedError
from repro.faultsim import PAGEFILE_SITES
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.page import MAX_RECORD_SIZE
from repro.ode.store import ObjectStore

EXAMPLES = int(os.environ.get("WRITEBACK_EXAMPLES", "40"))

KEYS = st.integers(0, 15)
SIZES = st.one_of(st.integers(8, 1500),
                  st.just(MAX_RECORD_SIZE + 100))  # a fragment chain
OPS = st.one_of(st.tuples(st.just("put"), KEYS, SIZES),
                st.tuples(st.just("delete"), KEYS, st.just(0)),
                st.tuples(st.just("get"), KEYS, st.just(0)))
TRANSACTIONS = st.lists(st.lists(OPS, min_size=1, max_size=6),
                        min_size=1, max_size=12)


class _FaultAtCrossing:
    """Once armed with a :attr:`target`, raise a transient fault at the
    target-th write-back crossing from then on."""

    def __init__(self):
        self.target = None

    def __call__(self, site, data, default):
        if self.target is not None and site in PAGEFILE_SITES:
            self.target -= 1
            if self.target < 0:
                self.target = None
                raise FaultInjectedError(f"injected at {site}")
        return default() if data is None else default(data)


def _oid(key: int) -> Oid:
    return Oid("wb", "c", key)


def _payload(key: int, size: int, serial: int) -> bytes:
    return encode_object(_oid(key), "Rec",
                         {"serial": serial, "data": "x" * size})


def _contents(store: ObjectStore, keys):
    return {key: store.get(_oid(key)) for key in keys
            if store.exists(_oid(key))}


#: Every run starts by filling more pages than the largest pool holds,
#: so the drawn transactions evict dirty pages from their first miss.
FILL = [("put", key, 1500) for key in range(16)]


def _run(store: ObjectStore, transactions, model):
    serial = 0
    for ops in [FILL] + transactions:
        before = dict(model)
        after = dict(model)
        try:
            store.begin()
            for op, key, size in ops:
                if op == "put":
                    serial += 1
                    payload = _payload(key, size, serial)
                    store.put(_oid(key), payload)
                    after[key] = payload
                elif op == "delete" and key in after:
                    store.delete(_oid(key))
                    del after[key]
                elif op == "get" and key in after:
                    assert store.get(_oid(key)) == after[key]
            store.commit()
            model.clear()
            model.update(after)
        except FaultInjectedError:
            if store.in_transaction:
                store.abort()
            actual = _contents(store, set(before) | set(after))
            assert actual in (before, after), "a transaction landed in part"
            model.clear()
            model.update(actual)


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capacity=st.integers(1, 8), transactions=TRANSACTIONS,
       target=st.integers(0, 31))
def test_write_back_under_a_transient_fault(capacity, transactions, target):
    with tempfile.TemporaryDirectory(prefix="writeback-prop-") as root:
        directory = Path(root) / "db"
        gate = _FaultAtCrossing()
        model = {}
        store = ObjectStore(directory, pool_capacity=capacity,
                            fault_gate=gate)
        try:
            gate.target = target
            _run(store, transactions, model)
            gate.target = None  # spent, or never reached
            assert _contents(store, range(16)) == model
            pagefile = store._placement.pagefile
            for page_no, frame in store.pool._frames.items():
                if not frame.page.dirty:
                    assert frame.page.to_bytes() == pagefile.read_page(
                        page_no), f"clean frame {page_no} never landed"
        finally:
            store.close()
        with ObjectStore(directory, pool_capacity=capacity) as reopened:
            assert _contents(reopened, range(16)) == model
