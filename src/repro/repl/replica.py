"""The replica side of WAL shipping: bootstrap and the apply loop.

A replica is an ordinary server process whose databases are clones of a
primary's, kept current by one :class:`ReplicaApplier` thread per
database.  The applier long-polls the primary's change log over
the normal wire protocol (``OP_REPL_FETCH``), applies each batch of
committed units with :meth:`~repro.ode.store.ObjectStore.apply_replicated`
— WAL-first, epoch-ordered, idempotent — and falls back to a full
snapshot install (``OP_REPL_SNAPSHOT`` →
:meth:`~repro.ode.store.ObjectStore.install_replicated`) when the
primary reports the gap unbridgeable.

The applier is deliberately pull-based: the primary keeps no per-replica
state (every reader shares its change log), a replica that dies simply
stops fetching, and catch-up after a restart is the same code path as
steady state (fetch from my epoch).  ``pause``/``resume`` exist so tests
can hold a replica at a known lag.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import NetworkError, OdeError, StalePrimaryError
from repro.net import protocol as P
from repro.net.client import OdeClient
from repro.obs import get_registry
from repro.ode.database import (
    BEHAVIOURS_FILE,
    CATALOG_FILE,
    DISPLAY_DIR,
    ICON_FILE,
    INDEXES_FILE,
    Database,
)
from repro.repl.feed import units_from_wire

#: How long one fetch parks on the primary waiting for fresh commits.
POLL_SECONDS = 0.5

#: Units requested per fetch; bounds the size of one apply batch.
FETCH_BATCH = 64

#: Initial backoff after the primary is unreachable; doubles per
#: consecutive failure (capped) so a long primary outage costs a
#: handful of reconnect attempts, not a steady 4 Hz retry hammer.
RECONNECT_BACKOFF_SECONDS = 0.25

#: Ceiling for the exponential reconnect backoff.
MAX_RECONNECT_BACKOFF_SECONDS = 5.0


def bootstrap_replica(root: Union[str, Path], name: str,
                      client: OdeClient) -> None:
    """Clone database *name* from the primary into *root*.

    Writes the catalog (schema), icon, behaviours and display modules,
    then installs the primary's object snapshot at its epoch, so the first
    fetch the applier issues streams from there.  The directory must not
    already hold a database.
    """
    reply = client.call(P.OP_REPL_SNAPSHOT, {"db": name})
    directory = Path(root) / f"{name}.odb"
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / CATALOG_FILE, "w", encoding="utf-8") as fh:
        json.dump(reply["schema"], fh, indent=2, sort_keys=True)
    (directory / ICON_FILE).write_text(reply["icon"], encoding="utf-8")
    _write_behaviours(directory, reply)
    display_dir = directory / DISPLAY_DIR
    display_dir.mkdir(exist_ok=True)
    for filename, source in reply["modules"].items():
        (display_dir / filename).write_text(source, encoding="utf-8")
    # The primary's index definitions, written BEFORE the open: the
    # open builds these indexes, and the applier's commit-driven
    # maintenance keeps them current at the primary's epochs — so a
    # replica-local probe answers exactly like the primary's.
    definitions = [[str(c), str(a)] for c, a in reply.get("indexes", [])]
    if definitions:
        with open(directory / INDEXES_FILE, "w", encoding="utf-8") as fh:
            json.dump(definitions, fh, indent=2)
    database = Database.open(directory)
    try:
        database.store.install_replicated(
            reply["epoch"],
            [(text, payload) for text, payload in reply["objects"]],
            term=reply.get("term"))
    finally:
        database.close()


def _write_behaviours(directory: Path, reply: Dict[str, Any]) -> bool:
    """Make ``behaviours.py`` the primary's, from a snapshot *reply*: an
    empty source means the primary has none, so a stale file goes.
    True when the file on disk changed."""
    source = reply.get("behaviours") or ""
    path = directory / BEHAVIOURS_FILE
    present = path.is_file()
    if not source:
        if present:
            path.unlink()
        return present
    if present and path.read_text(encoding="utf-8") == source:
        return False
    path.write_text(source, encoding="utf-8")
    return True


class ReplicaApplier:
    """Pulls committed units from the primary and applies them.

    One thread per replicated database.  All network failures are
    absorbed with a backoff — a replica outlives its primary's restarts —
    and every apply error other than a lost connection is fatal for the
    loop (a diverged replica must not keep serving quietly; the server
    surfaces ``last_error`` in stats).
    """

    def __init__(self, database: Database, primary_host: str,
                 primary_port: int,
                 peers: Optional[Sequence[Tuple[str, int]]] = None):
        self.database = database
        self.primary_host = primary_host
        self.primary_port = primary_port
        #: Other replica-set members, probed after the upstream is lost
        #: or fenced: whichever now serves as primary at the highest
        #: term (at least this replica's own) becomes the new upstream.
        self.peers: List[Tuple[str, int]] = [
            (str(host), int(port)) for host, port in (peers or [])]
        self._client = OdeClient(primary_host, primary_port,
                                 retries=1)
        # The peer probe in flight, if any: stop() interrupts it.
        self._probe: Optional[OdeClient] = None
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._resumed = threading.Event()
        self._resumed.set()
        self._parked = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._primary_epoch = database.store.epoch
        self._primary_term = database.store.term
        self.last_error: Optional[str] = None
        self._m_applied = get_registry().counter("repl.apply.units")
        self._m_resyncs = get_registry().counter("repl.apply.resyncs")
        self._m_disconnects = get_registry().counter("repl.apply.disconnects")
        self._m_retargets = get_registry().counter("repl.apply.retargets")
        self._m_fenced = get_registry().counter("repl.apply.fenced_upstreams")

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "ReplicaApplier":
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"repl-apply-{self.database.name}")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._resumed.set()
        probe = self._probe
        if probe is not None:
            probe.interrupt()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._client.close()

    def pause(self, wait_seconds: float = 10.0) -> None:
        """Hold the replica at its current epoch (test hook).

        Blocks until the apply loop is actually parked — any in-flight
        fetch has drained — so the applied epoch cannot advance until
        :meth:`resume`.
        """
        self._paused.set()
        self._resumed.clear()
        if self._thread is not None:
            self._parked.wait(wait_seconds)

    def resume(self) -> None:
        self._paused.clear()
        self._resumed.set()

    # -- the loop ---------------------------------------------------------------

    def _run(self) -> None:
        backoff = RECONNECT_BACKOFF_SECONDS
        while not self._stop.is_set():
            if self._paused.is_set():
                self._parked.set()
                self._resumed.wait()
                self._parked.clear()
            if self._stop.is_set():
                return
            try:
                self.step()
                backoff = RECONNECT_BACKOFF_SECONDS
            except NetworkError:
                self._m_disconnects.inc()
                if self._retarget():
                    backoff = RECONNECT_BACKOFF_SECONDS
                    continue
                self._stop.wait(backoff)
                backoff = min(backoff * 2.0, MAX_RECONNECT_BACKOFF_SECONDS)
            except StalePrimaryError as exc:
                # The upstream was failed over away from.  Its data is
                # not trusted, but the condition is recoverable: the
                # real (higher-term) primary is somewhere in the peer
                # set — probe for it, or back off and probe again (it
                # may still be mid-promotion).
                self._m_fenced.inc()
                self.last_error = f"{type(exc).__name__}: {exc}"
                if self._retarget():
                    self.last_error = None
                    backoff = RECONNECT_BACKOFF_SECONDS
                    continue
                self._stop.wait(backoff)
                backoff = min(backoff * 2.0, MAX_RECONNECT_BACKOFF_SECONDS)
            except OdeError as exc:
                # Divergence, or a storage failure before the units
                # were durable: stop applying, leave the evidence for
                # stats.  (A failure mid-apply never lands here — the
                # store recovers from its own log.)  Reads stay safe.
                self.last_error = f"{type(exc).__name__}: {exc}"
                return

    def _retarget(self) -> bool:
        """Probe the peer set for the live highest-term primary.

        Returns True after switching the upstream client to a peer that
        (a) answers, (b) serves as primary, and (c) carries a term no
        lower than this replica's own — the fence: a resurrected old
        primary fails (c) and is never re-adopted.  The actual catch-up
        happens on the next :meth:`step` against the new upstream
        (snapshot resync if its term is higher — see there).
        """
        if not self.peers:
            return False
        own_term = self.database.store.term
        best: Optional[Tuple[str, int]] = None
        best_term = 0
        for host, port in self.peers:
            if (host, port) == (self.primary_host, self.primary_port):
                continue
            probe = self._probe = OdeClient(host, port, retries=0)
            try:
                # After publishing the probe: a stop() that missed it
                # has already set the flag.
                if self._stop.is_set():
                    return False
                info = probe.call(P.OP_HELLO,
                                  {"version": P.PROTOCOL_VERSION})
            except OdeError:
                continue
            finally:
                self._probe = None
                probe.close()
            terms = info.get("terms")
            term = (terms or {}).get(self.database.name, info.get("term"))
            term = term if isinstance(term, int) and term > 0 else 1
            if info.get("role") != "primary" or term < own_term:
                continue
            if term > best_term:
                best, best_term = (host, port), term
        if best is None:
            return False
        self._client.close()
        self.primary_host, self.primary_port = best
        self._primary_term = best_term
        self._client = OdeClient(self.primary_host, self.primary_port,
                                 retries=1)
        self._m_retargets.inc()
        return True

    def step(self) -> int:
        """One fetch + apply round; returns the new applied epoch."""
        store = self.database.store
        reply = self._client.call(P.OP_REPL_FETCH, {
            "db": self.database.name,
            "after": store.epoch,
            "max": FETCH_BATCH,
            "wait_ms": int(POLL_SECONDS * 1000),
        })
        self._primary_epoch = reply.get("epoch", store.epoch)
        upstream_term = reply.get("term")
        upstream_term = (upstream_term
                         if isinstance(upstream_term, int)
                         and upstream_term > 0 else 1)
        self._primary_term = upstream_term
        if upstream_term < store.term:
            raise StalePrimaryError(
                f"upstream {self.primary_host}:{self.primary_port} serves "
                f"{self.database.name!r} at term {upstream_term}, below "
                f"this replica's term {store.term}")
        resync = bool(reply.get("resync"))
        if upstream_term > store.term:
            # Term raised: the upstream was promoted since our last
            # fetch.  Epoch contiguity cannot prove continuity across a
            # promotion — the fenced primary and the new one can both
            # hold a *different* commit at the same next epoch — so the
            # only sound catch-up is a snapshot under the new term.
            resync = True
        if resync:
            self._m_resyncs.inc()
            snapshot = self._client.call(
                P.OP_REPL_SNAPSHOT, {"db": self.database.name})
            if _write_behaviours(self.database.directory, snapshot):
                self.database.reload_behaviours()
            return store.install_replicated(
                snapshot["epoch"],
                [(text, payload) for text, payload in snapshot["objects"]],
                term=snapshot.get("term"))
        units = units_from_wire(reply.get("units", []))
        if units:
            applied = store.apply_replicated(units)
            self._m_applied.inc(len(units))
            return applied
        return store.epoch

    # -- observability ----------------------------------------------------------

    @property
    def applied_epoch(self) -> int:
        return self.database.store.epoch

    @property
    def lag(self) -> int:
        """Epochs behind the primary, as of the last fetch reply."""
        return max(0, self._primary_epoch - self.database.store.epoch)

    def stats(self) -> Dict[str, Any]:
        return {
            "database": self.database.name,
            "primary": f"{self.primary_host}:{self.primary_port}",
            "applied_epoch": self.applied_epoch,
            "primary_epoch": self._primary_epoch,
            "term": self.database.store.term,
            "primary_term": self._primary_term,
            "lag": self.lag,
            "paused": self._paused.is_set(),
            "units_applied": self._m_applied.value,
            "resyncs": self._m_resyncs.value,
            "disconnects": self._m_disconnects.value,
            "retargets": self._m_retargets.value,
            "last_error": self.last_error,
        }
