"""The registry of named fault-injection sites.

Each site is one place where :mod:`repro.ode` consults its optional
``fault_gate`` before touching stable storage.  The names here must
match the string literals passed to ``_fault_gate(...)`` in the source
— ``tests/faultsim/test_sites.py`` scans the modules and asserts the
two sets are identical, so a new write/sync point cannot be added
without showing up in the torture runner's coverage.

Site naming: ``<module>.<operation>`` (plus a qualifier for sites that
exist inside one operation, e.g. ``store.commit.apply``).
"""

from __future__ import annotations

#: Sites inside :class:`repro.ode.pagefile.PageFile`.  ``journal.*``
#: guard the double-write journal that makes page writes atomic; a
#: fault there must never damage the main file (no page is overwritten
#: until its journal image is durable).
PAGEFILE_SITES = (
    "pagefile.journal.write",
    "pagefile.journal.sync",
    "pagefile.write_page",
    "pagefile.sync",
)

#: Sites inside :class:`repro.ode.wal.WriteAheadLog`.  ``wal.append``
#: is crossed by single-record appends *and* by a group-commit batch —
#: the batch's COMMIT frames arrive as one blob, so a torn write cuts
#: the batch at an arbitrary byte and recovery keeps the intact frame
#: prefix.  ``wal.group.sync`` is the one fsync that makes a whole
#: batch durable: a crash before it loses every commit in the batch
#: atomically (none was acknowledged), a crash after it loses none.
#: ``wal.sync`` remains the checkpoint/recovery sync.
WAL_SITES = (
    "wal.append",
    "wal.sync",
    "wal.group.sync",
)

#: Pure crash points inside :class:`repro.ode.store.ObjectStore`'s one
#: apply path (``_apply_unit``), crossed once per unit in epoch order —
#: by the group-commit leader after the batch fsync, and by a replica's
#: ``apply_replicated`` after its own: after the commit record
#: is durable but before the pages are touched (``apply``); after the
#: pages are applied but before the secondary indexes absorb the
#: commit's effects (``index`` — a crash here reopens with indexes
#: rebuilt from the recovered base data, so index and cluster must
#: agree exactly); after the index apply but before the commit epoch is
#: published to snapshot readers (``publish`` — a crash here must not
#: let the epoch regress or expose a half-applied transaction on
#: reopen); and after publication but before the log is eventually
#: truncated (``checkpoint``).  All four sit *after* durability, so a
#: crash at any of them redoes the whole transaction from the log on
#: reopen.
STORE_SITES = (
    "store.commit.apply",
    "store.commit.index",
    "store.commit.publish",
    "store.commit.checkpoint",
)

#: Every storage-side injection site, in gate-crossing order within one
#: commit.  The crash-recovery torture runner must cover all of these.
STORAGE_SITES = PAGEFILE_SITES + WAL_SITES + STORE_SITES

#: Actions the :class:`~repro.faultsim.proxy.FaultProxy` can take on a
#: chunk of wire traffic, with default weights.  ``forward`` is the
#: no-fault action; the rest model a hostile network.
PROXY_ACTIONS = (
    ("forward", 0.70),
    ("delay", 0.08),
    ("split", 0.08),
    ("corrupt", 0.05),
    ("duplicate", 0.04),
    ("drop", 0.05),
)
