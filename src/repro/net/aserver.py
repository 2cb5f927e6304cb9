"""The connection layer of :class:`~repro.net.server.OdeServer`'s event loop.

One ``asyncio`` loop on one background thread serves every connection.
Connections are coroutines, so their cost is a file descriptor and a
small heap object — the connection-count ceiling is the fd limit, not
how many OS threads the box can stand.

Division of labour around the loop, by each opcode's rule in
:data:`~repro.net.protocol.OPCODES`:

pinned reads, cursors, session-local work
    dispatched inline on the loop.  MVCC makes reads lock-free (each
    request pins a snapshot), so there is nothing to wait on and a hop
    to another thread would only add latency.
writes (and autocommit writes)
    serialized per database by an ``asyncio.Lock`` and run on a small
    thread pool in two steps: ``write_prepare`` — overlay apply plus
    ``commit_stage`` — under the lock, then ``commit_wait`` with the
    lock *released*, so the loop never blocks on an fsync and
    concurrent sessions' commits batch into one ``wal.group.sync``.
executor
    a replication snapshot's copy-out and a promotion's fsyncs run on
    the pool with no lock.
on-loop streams: change-log readers
    a CDC subscription and a replication long-poll are both a cursor
    over the database's change log (:class:`~repro.ode.changelog.ChangeLog`)
    read inline on the loop.  A commit appends once and posts one
    ``call_soon_threadsafe`` per database; on the loop that sets the
    database's ``changed`` event, which every parked reader of it awaits.
    A reader takes the current event *before* it reads the log, so an
    append landing after the read still wakes it.  A subscription's pump
    task pushes one ``OP_CDC_EVENT`` per commit through the connection's
    serialized writer; an ``OP_REPL_FETCH`` with nothing to stream parks
    until the next append or its wait runs out.  An idle reader costs
    zero wakeups.

Backpressure is the transport's: replies and pushes go through
``StreamWriter.drain()``, so a peer that stops reading suspends only
its own connection's coroutines at the transport high-water mark; the
commit path and every other connection keep moving.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.cdc import ChangeCursor, summary_to_wire
from repro.errors import NetworkError
from repro.net import protocol as P
from repro.net.session import HostedDatabase, ServerSession
from repro.obs import get_registry
from repro.repl.feed import MAX_WAIT_SECONDS, fetch

if TYPE_CHECKING:  # the server imports this module
    from repro.net.server import OdeServer

def _fetch_field(payload: Dict[str, Any], key: str, default: int,
                 minimum: int) -> int:
    """An integer ``OP_REPL_FETCH`` field, or a NetworkError naming it."""
    if key not in payload:
        return default
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise NetworkError(f"OP_REPL_FETCH {key!r} must be an integer "
                           f">= {minimum}, not {value!r}")
    return value


class _AsyncSubscription:
    """One CDC subscription's loop-side state (cursor + pump task)."""

    __slots__ = ("sub_id", "hosted", "cursor", "task")

    def __init__(self, sub_id: int, hosted: HostedDatabase,
                 cursor: ChangeCursor):
        self.sub_id = sub_id
        self.hosted = hosted
        self.cursor = cursor
        self.task: Optional[asyncio.Task] = None


class _AsyncConnection:
    """One client connection: reader coroutine, dispatcher, pumps."""

    def __init__(self, server: "OdeServer",
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, session_id: int):
        self._server = server
        self._reader = reader
        self._writer = writer
        self._session = ServerSession(server, session_id)
        #: Frame writes interleave from the dispatcher and any number of
        #: CDC pump tasks; the lock keeps them whole on the wire.
        self._wlock = asyncio.Lock()
        #: The per-database writer lock held across this session's open
        #: transaction (BEGIN..COMMIT/ABORT), else None.
        self._tx_lock: Optional[asyncio.Lock] = None
        self._subscriptions: Dict[int, _AsyncSubscription] = {}
        self._sub_ids = itertools.count(1)
        self._closing = False
        self._handling = False
        self.task: Optional[asyncio.Task] = None

    # -- reader loop -------------------------------------------------------------

    async def run(self) -> None:
        server = self._server
        server._session_started()
        reassembler = P.FrameReassembler()
        try:
            while not self._closing and not server._stopping.is_set():
                data = await self._reader.read(P.READ_CHUNK)
                if not data:
                    break  # peer closed; EOF, not a poll timeout
                server._m_wakeups.inc()
                self._handling = True
                try:
                    reassembler.feed(data)
                    while True:
                        frame = reassembler.next_frame()
                        if frame is None:
                            break
                        await self._handle_frame(frame)
                except P.ProtocolError:
                    break  # corrupt stream: drop the connection
                finally:
                    self._handling = False
        finally:
            self._teardown()

    def request_close(self) -> None:
        """Shutdown's wind-down signal (runs on the loop, no await).

        A connection mid-request finishes it — and gets its reply —
        before the loop condition breaks; one parked in ``read`` has no
        request in flight, so closing the transport just unparks it.
        """
        self._closing = True
        if not self._handling:
            try:
                self._writer.close()
            except Exception:
                pass

    def _teardown(self) -> None:
        """Synchronous cleanup — safe even when the task was cancelled
        (no awaits, so it cannot be re-interrupted mid-flight)."""
        server = self._server
        for sub_id in list(self._subscriptions):
            sub = self._drop_subscription(sub_id)
            if not sub.task.done():
                sub.task.cancel()
        try:
            self._session.close()  # aborts an open tx, drops cursor pins
        except Exception:
            get_registry().counter("net.teardown_error").inc()
        if self._tx_lock is not None:
            lock, self._tx_lock = self._tx_lock, None
            if lock.locked():
                lock.release()
        server._session_finished()
        try:
            self._writer.close()
        except Exception:
            pass

    # -- frame handling ----------------------------------------------------------

    async def _handle_frame(self, frame: P.Frame) -> None:
        server = self._server
        server._m_bytes_in.inc(frame.wire_size)
        server._request_counter(frame.opcode).inc()
        with server._m_request_seconds.time():
            try:
                result = await self._dispatch(frame.opcode, frame.payload)
                reply_op, reply = P.OP_REPLY, result
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # marshal any failure to the client
                server._m_errors.inc()
                reply_op = P.OP_ERROR
                reply = {"kind": type(exc).__name__, "message": str(exc)}
        try:
            sent = await self._send(frame.request_id, reply_op, reply)
            server._m_bytes_out.inc(sent)
        except (NetworkError, OSError, ConnectionError):
            pass  # client vanished mid-reply; the reader loop cleans up

    async def _send(self, request_id: int, opcode: int,
                    payload: Optional[Dict[str, Any]]) -> int:
        data = P.encode_frame(request_id, opcode, payload)
        async with self._wlock:
            self._writer.write(data)
            await self._writer.drain()
        return len(data)

    async def _dispatch(self, opcode: int,
                        payload: Dict[str, Any]) -> Dict[str, Any]:
        match P.opcode_info(opcode).rule:
            case P.Rule.WRITE | P.Rule.AUTOCOMMIT:
                return await self._dispatch_write(opcode, payload)
            case P.Rule.EXECUTOR:
                # A full-state copy-out is too much CPU for the loop, and
                # a promotion fsyncs: the loop never blocks on an fsync.
                return await asyncio.get_running_loop().run_in_executor(
                    self._server._executor, self._session.dispatch, opcode,
                    payload)
            case P.Rule.ON_LOOP:
                return await _STREAMS[opcode](self, payload)
        # A lock-free snapshot read or session-local work: inline on the
        # loop, no hop.  The session refuses what it does not serve.
        return self._session.dispatch(opcode, payload)

    # -- writes ------------------------------------------------------------------

    async def _dispatch_write(self, opcode: int,
                              payload: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session
        loop = asyncio.get_running_loop()
        lock = self._tx_lock
        if lock is None:
            hosted = session.hosted(payload)
            lock = self._server._write_lock_for(hosted.database.name)
            await lock.acquire()
        staged: Optional[int] = None
        hosted = None
        try:
            result, staged, hosted = await loop.run_in_executor(
                self._server._executor, session.write_prepare, opcode,
                payload)
        finally:
            if session.tx_database is not None:
                # BEGIN (or a write inside the tx): the transaction owns
                # the writer lock until COMMIT/ABORT or disconnect.
                self._tx_lock = lock
            else:
                self._tx_lock = None
                lock.release()
        if staged is not None:
            # Writer lock is down: the fsync wait happens on the shared
            # group-commit barrier, where concurrent commits batch.
            await loop.run_in_executor(
                self._server._executor,
                hosted.database.objects.commit_wait, staged)
        result.setdefault("epoch", hosted.database.store.epoch)
        return result

    # -- change-log readers ------------------------------------------------------

    async def _repl_fetch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self._session.hosted(payload)
        store = hosted.database.store
        after = _fetch_field(payload, "after", 0, 0)
        max_units = _fetch_field(payload, "max", 64, 1)
        wait_ms = _fetch_field(payload, "wait_ms", 0, 1)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + min(wait_ms / 1000.0, MAX_WAIT_SECONDS)
        while True:
            if self._server._stopping.is_set():
                raise NetworkError("server shutting down")
            changed = hosted.changed  # before the read: see the module doc
            result = fetch(store, after, max_units)
            remaining = deadline - loop.time()
            if result["units"] or result["resync"] or remaining <= 0:
                return result
            try:
                await asyncio.wait_for(changed.wait(), remaining)
            except asyncio.TimeoutError:
                pass  # the next round replies with no units

    async def _cdc_subscribe(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self._session.hosted(payload)
        database = hosted.database
        clusters = payload.get("clusters")
        if clusters is not None:
            clusters = tuple(str(c) for c in clusters)
            for name in clusters:
                database.schema.get_class(name)  # raises on unknown class
        sub_id = next(self._sub_ids)
        # The cursor starts at the ack epoch.  Every later commit is
        # appended to the log after its epoch publishes, so none can
        # fall between the ack and the stream unseen.
        generation = database.store.change_log.generation
        epoch = database.store.epoch
        sub = _AsyncSubscription(sub_id, hosted,
                                 ChangeCursor(epoch, clusters, generation))
        self._subscriptions[sub_id] = sub
        hosted.subscribers += 1
        sub.task = asyncio.create_task(self._pump(sub))
        return {"sub": sub_id, "epoch": epoch}

    async def _cdc_unsubscribe(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        sub = self._drop_subscription(payload.get("sub"))
        if sub is None:
            return {"closed": False}
        sub.task.cancel()
        await asyncio.wait([sub.task])
        return {"closed": True}

    def _drop_subscription(self, sub_id) -> Optional[_AsyncSubscription]:
        sub = self._subscriptions.pop(sub_id, None)
        if sub is not None:
            sub.hosted.subscribers -= 1
        return sub

    async def _pump(self, sub: _AsyncSubscription) -> None:
        """Push one cursor's summaries onto the connection, one frame per
        commit, until the subscription is dropped or the server stops."""
        server = self._server
        hosted = sub.hosted
        log = hosted.database.store.change_log
        while not server._stopping.is_set():
            changed = hosted.changed  # before the read: see the module doc
            try:
                for summary in sub.cursor.read(log):
                    sent = await self._send(0, P.OP_CDC_EVENT, {
                        "db": hosted.database.name, "sub": sub.sub_id,
                        **summary_to_wire(summary)})
                    server._m_bytes_out.inc(sent)
            except asyncio.CancelledError:
                raise
            except Exception:
                get_registry().counter("cdc.send_errors").inc()
                self._drop_subscription(sub.sub_id)
                return
            await changed.wait()


#: ``_AsyncConnection._<name>`` for every on-loop stream row of the
#: opcode table; a row without one fails the import.
_STREAMS = {row.code: getattr(_AsyncConnection, f"_{row.name}")
            for row in P.OPCODES.values() if row.rule is P.Rule.ON_LOOP}
