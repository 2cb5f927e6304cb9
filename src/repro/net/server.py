"""OdeServer: the socket server hosting Ode databases over the wire protocol.

One server process owns the databases (and therefore their directory
locks); any number of OdeView front ends connect and browse the same
data concurrently — the paper's multi-user premise made literal.

:class:`OdeServer` is the hosting layer (databases and the wakeups of
their change-log readers, replica appliers, request metrics) plus the
lifecycle of the one I/O core: an ``asyncio`` event loop on one
background thread.  Connections are coroutines
(:mod:`repro.net.aserver`), frames reassemble incrementally from
whatever the socket has, snapshot reads run inline on the loop, and
writes hop to a small executor for the group-commit stage/wait so the
loop never blocks on an fsync.  Connection count is bounded by file
descriptors, not OS threads.

Writers are serialized per database by an ``asyncio.Lock`` the server
hands out (:meth:`OdeServer._write_lock_for`); readers are lock-free
(MVCC snapshots).

Shutdown drains gracefully: the listener closes first (no new
connections), parked change-log readers wake (a long-poll ends with a
clean error), in-flight requests finish, and if connections fail to
drain the group-commit barrier cancels its parked waiters rather than
leaking them past the drain deadline.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import NetworkError, OdeError, StorageError
from repro.net import protocol as P
from repro.net.aserver import _AsyncConnection
from repro.net.session import HostedDatabase
from repro.obs.metrics import get_registry
from repro.ode.database import Database
from repro.repl.replica import ReplicaApplier, bootstrap_replica

#: How long shutdown waits for in-flight connections to drain.
_DRAIN_SECONDS = 5.0

#: Listen backlog.  Sized for the connection-count sweep: a 4096-client
#: ramp connects in large waves.
_LISTEN_BACKLOG = 512

#: Executor threads for the blocking slice of the write path
#: (``write_prepare`` + ``commit_wait``) and replica snapshots.  A
#: commit_wait parks a worker for at most one group flush — and the
#: barrier elects one of its own waiters as leader, so progress never
#: depends on a free worker beyond those already parked.
_EXECUTOR_WORKERS = 16


class OdeServer:
    """Hosts the databases under a root and serves them from one event loop.

    Owns the databases, the replica appliers, the session-id well, the
    request metrics, and the loop thread that moves frames.
    """

    def __init__(self, root: Union[str, Path], host: str = "127.0.0.1",
                 port: int = 0, io_model: str = "async",
                 replica_of: Optional[Tuple[str, int]] = None,
                 replica_peers: Optional[List[Tuple[str, int]]] = None,
                 fault_gate=None):
        # Not an option: the frozen benchmark (benchmarks/odebench) still
        # passes io_model="async" from when a threaded core existed, so
        # the keyword survives with that one legal value.
        if io_model != "async":
            raise NetworkError(
                f"io_model={io_model!r}: the threaded core was removed; "
                f"the event-loop core is the only one")
        self.root = Path(root)
        self.host = host
        self._requested_port = port
        #: ``(host, port)`` of the primary when serving as a read
        #: replica: databases are cloned from there at start, kept
        #: current by one applier thread each, and writes are refused.
        self.replica_of = replica_of
        #: Other members of the replica set (``(host, port)`` pairs).
        #: Appliers probe these after losing the upstream to discover a
        #: promoted, higher-term primary and re-target themselves.
        self.replica_peers = list(replica_peers or [])
        #: The faultsim test seam, handed to every hosted database.
        self._fault_gate = fault_gate
        self._hosted: Dict[str, HostedDatabase] = {}
        self._appliers: Dict[str, ReplicaApplier] = {}
        self._stopping = threading.Event()
        # itertools.count, NOT iter(range(...)): a finite range would
        # eventually StopIteration inside the accept path and the server
        # would silently stop taking connections.
        self._session_ids = itertools.count(1)
        self._active_sessions = 0
        self._active_lock = threading.Lock()

        registry = get_registry()
        self._m_bytes_in = registry.counter("net.server.bytes_in")
        self._m_bytes_out = registry.counter("net.server.bytes_out")
        self._m_sessions_opened = registry.counter("net.server.sessions.opened")
        self._m_sessions_closed = registry.counter("net.server.sessions.closed")
        self._m_errors = registry.counter("net.server.errors")
        self._m_request_seconds = registry.histogram("net.server.request_seconds")
        #: Reader loop iterations; on an idle server this should sit
        #: still — the "no recv-poll wakeups" contract has a test.
        self._m_wakeups = registry.counter("net.server.wakeups")
        self._m_requests: Dict[int, object] = {}

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._aserver: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._connections: set = set()
        self._write_locks: Dict[str, asyncio.Lock] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=_EXECUTOR_WORKERS,
            thread_name_prefix="ode-server-exec")

    # -- database hosting --------------------------------------------------------

    def _discover(self) -> None:
        """Open every database directory directly under the root.

        A directory is a database iff it has a catalog file; the root
        itself may also be a single database directory.
        """
        candidates = []
        if (self.root / "catalog.json").exists():
            candidates.append(self.root)
        else:
            candidates.extend(
                path for path in sorted(self.root.iterdir())
                if path.is_dir() and (path / "catalog.json").exists()
            )
        if not candidates:
            raise StorageError(f"no databases found under {self.root}")
        for path in candidates:
            database = Database.open(path, fault_gate=self._fault_gate)
            hosted = HostedDatabase(database)
            self._hosted[database.name] = hosted
            # Whatever the role: the log fills on replicated applies
            # too, so a replica serves replica fetches (chaining) and
            # CDC push from its own applied stream.
            database.store.change_log.on_change = functools.partial(
                self._post_wake, hosted)

    def _post_wake(self, hosted: HostedDatabase) -> None:
        """The change log's hook (writer's thread, store lock
        held): one loop wakeup per commit, whatever the reader count."""
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(hosted.wake)
            except RuntimeError:
                pass  # loop already closed

    def _bootstrap_from_primary(self) -> None:
        """Clone the primary's databases that are missing under root."""
        from repro.net.client import OdeClient

        host, port = self.replica_of
        client = OdeClient(host, port)
        try:
            names = client.call(P.OP_LIST_DATABASES, {})["databases"]
            if not names:
                raise StorageError(f"primary {host}:{port} hosts no databases")
            for name in names:
                if not (self.root / f"{name}.odb" / "catalog.json").exists():
                    bootstrap_replica(self.root, name, client)
        finally:
            client.close()

    def _start_appliers(self) -> None:
        host, port = self.replica_of
        for name, entry in self._hosted.items():
            self._appliers[name] = ReplicaApplier(
                entry.database, host, port,
                peers=self.replica_peers).start()

    def _stop_appliers(self) -> None:
        for applier in self._appliers.values():
            applier.stop()
        self._appliers.clear()

    def promote(self) -> Dict[str, int]:
        """Promote this replica to primary; returns ``{db: new term}``.

        Stops the appliers (no more units pulled from the dead or
        demoted upstream), flips the role to primary (write_prepare
        stops refusing), and durably mints the next fenced term in every
        database's WAL — in that order, so by the time a write can be
        accepted its term fence is already on disk.  Idempotent on a
        primary: no appliers to stop, but a fresh term is still minted
        (each call is one promotion; callers must not blind-retry it).
        Every database's change log serves regardless of role, so
        replicas and CDC subscribers of this node keep working across
        the flip — downstream appliers see the raised term in
        their next fetch and resync under it.
        """
        self._stop_appliers()
        self.replica_of = None
        return {name: entry.database.store.promote_term()
                for name, entry in sorted(self._hosted.items())}

    def _cancel_commit_waiters(self) -> None:
        """Fail parked ``commit_wait`` callers with a clean error.

        The drain-deadline escape hatch: a connection wedged on the
        group-commit barrier (e.g. behind a fault proxy) must not leak
        past shutdown — cancelling the barrier wakes it with a typed
        :class:`~repro.errors.GroupCommitError` instead.
        """
        for entry in self._hosted.values():
            try:
                entry.database.store.cancel_commit_waits(
                    "server shutting down")
            except Exception:
                get_registry().counter("net.teardown_error").inc()

    def _close_hosted(self) -> None:
        """Close the databases (run from the caller's thread)."""
        for entry in self._hosted.values():
            try:
                entry.database.close()
            except OdeError:
                # A simulated crash or failed recovery already tore the
                # store down; the directory lock still gets released.
                get_registry().counter("net.teardown_error").inc()
        self._hosted.clear()

    def hosted(self, name: str) -> HostedDatabase:
        entry = self._hosted.get(name)
        if entry is None:
            raise StorageError(f"server does not host a database named {name!r}")
        return entry

    def applier(self, name: str) -> ReplicaApplier:
        applier = self._appliers.get(name)
        if applier is None:
            raise StorageError(f"no replication applier for {name!r}")
        return applier

    @property
    def role(self) -> str:
        return "replica" if self.replica_of else "primary"

    @property
    def is_replica(self) -> bool:
        return self.replica_of is not None

    @property
    def primary_address(self) -> Optional[str]:
        if self.replica_of is None:
            return None
        host, port = self.replica_of
        return f"{host}:{port}"

    def replication_stats(self, name: str) -> Dict[str, Any]:
        """Role-appropriate replication detail for one database."""
        applier = self._appliers.get(name)
        if applier is not None:
            return applier.stats()
        log = self.hosted(name).database.store.change_log
        return {
            "floor": log.floor,
            "units": len(log),
            "bytes": log.nbytes,
            "resyncs": get_registry().counter("repl.feed.resyncs").value,
        }

    def database_names(self) -> List[str]:
        return sorted(self._hosted)

    @property
    def active_sessions(self) -> int:
        with self._active_lock:
            return self._active_sessions

    def _session_started(self) -> None:
        self._m_sessions_opened.inc()
        with self._active_lock:
            self._active_sessions += 1

    def _session_finished(self) -> None:
        with self._active_lock:
            self._active_sessions -= 1
        self._m_sessions_closed.inc()

    def _request_counter(self, opcode: int):
        counter = self._m_requests.get(opcode)
        if counter is None:
            counter = get_registry().counter(
                f"net.server.requests.{P.opcode_name(opcode)}")
            self._m_requests[opcode] = counter
        return counter

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Open the databases, then bring the loop up on its thread.

        Discovery/bootstrap runs synchronously here, so a bad root or a
        crashed open raises in the caller, not on a background thread.
        """
        if self._loop_thread is not None:
            raise NetworkError("server already started")
        if self.replica_of is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._bootstrap_from_primary()
        self._discover()
        if self.replica_of is not None:
            self._start_appliers()
        self._ready.clear()
        self._startup_error = None
        thread = threading.Thread(target=self._run_loop,
                                  name="ode-server-loop", daemon=True)
        self._loop_thread = thread
        thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            exc = self._startup_error
            thread.join(timeout=1.0)
            self._loop_thread = None
            self._loop = None
            self._stop_appliers()
            self._close_hosted()
            raise exc

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                server = loop.run_until_complete(asyncio.start_server(
                    self._on_connect, self.host, self._requested_port,
                    backlog=_LISTEN_BACKLOG))
            except BaseException as exc:
                self._startup_error = exc
                return
            self._aserver = server
            self._port = server.sockets[0].getsockname()[1]
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                # Straggler tasks (cancelled pumps, dying connections)
                # get one chance to unwind before the loop closes.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(asyncio.gather(
                        *pending, return_exceptions=True))
        finally:
            self._ready.set()
            asyncio.set_event_loop(None)
            loop.close()

    @property
    def started(self) -> bool:
        return self._loop_thread is not None

    @property
    def port(self) -> int:
        if self._port is None:
            raise NetworkError("server not started")
        return self._port

    def shutdown(self, drain: float = _DRAIN_SECONDS) -> None:
        """Stop accepting, drain in-flight requests, close databases."""
        self._stopping.set()
        self._stop_appliers()
        loop, thread = self._loop, self._loop_thread
        if loop is None or thread is None or not thread.is_alive():
            # Never started (or the loop already died): just tear down
            # whatever hosting state exists.
            self._close_hosted()
            self._loop = None
            self._loop_thread = None
            self._executor.shutdown(wait=False, cancel_futures=True)
            return
        try:
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown_async(drain), loop)
            future.result(timeout=drain + 5.0)
        except Exception:
            get_registry().counter("net.teardown_error").inc()
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass  # loop already stopped
        thread.join(timeout=drain)
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._close_hosted()
        self._loop = None
        self._loop_thread = None
        self._aserver = None

    async def _shutdown_async(self, drain: float) -> None:
        if self._aserver is not None:
            self._aserver.close()
            await self._aserver.wait_closed()
        # Parked readers first: a replication long-poll wakes at once
        # with a clean error instead of riding out its wait against the
        # drain budget, and CDC pumps exit.
        for hosted in self._hosted.values():
            hosted.wake()
        for conn in list(self._connections):
            conn.request_close()
        tasks = [conn.task for conn in list(self._connections)
                 if conn.task is not None and not conn.task.done()]
        if tasks:
            _done, pending = await asyncio.wait(tasks, timeout=drain)
            if pending:
                # Something is parked past the drain deadline — most
                # likely a commit_wait behind a wedged peer.  Cancel the
                # barrier's waiters (clean GroupCommitError), then give
                # the tasks one more beat before cancelling them.
                self._cancel_commit_waiters()
                _done2, still = await asyncio.wait(pending, timeout=1.0)
                for task in still:
                    task.cancel()
                if still:
                    await asyncio.wait(still, timeout=1.0)

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` is called (e.g. from a signal).

        No busy poll: the stop event parks this thread.  The wait is
        chunked only so the main thread stays promptly interruptible by
        KeyboardInterrupt — one wakeup a minute.
        """
        if not self.started:
            self.start()
        while not self._stopping.is_set():
            self._stopping.wait(60.0)

    def __enter__(self) -> "OdeServer":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # -- connections -------------------------------------------------------------

    def _write_lock_for(self, name: str) -> asyncio.Lock:
        # Loop-thread only, so plain dict ops need no lock.
        lock = self._write_locks.get(name)
        if lock is None:
            lock = self._write_locks.setdefault(name, asyncio.Lock())
        return lock

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        if self._stopping.is_set():
            writer.close()
            return
        session_id = next(self._session_ids)
        conn = _AsyncConnection(self, reader, writer, session_id)
        conn.task = asyncio.current_task()
        self._connections.add(conn)
        try:
            await conn.run()
        except asyncio.CancelledError:
            # Shutdown cancelled this connection past its drain: end
            # quietly, since the stream protocol's done-callback asks a
            # cancelled task for its exception and logs the traceback.
            if not self._stopping.is_set():
                raise
        except BaseException:
            # Includes simulated crashes from faultsim: the coordinator
            # (GroupCommit) already recorded the damage; here it only
            # kills this one connection.
            get_registry().counter("net.teardown_error").inc()
        finally:
            self._connections.discard(conn)
