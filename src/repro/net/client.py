"""OdeClient: one connection from a front end to an OdeServer.

The client owns a single socket, hands out monotonically increasing
request ids, and matches each :meth:`call`'s reply to its request by id.
Every frame it reads — the HELLO reply, replies and pushes — goes
through one :class:`~repro.net.protocol.FrameReassembler` per
connection, the parser the server uses, so a partial frame waits in its
buffer for whichever reader comes next.

Failure policy: requests whose row in the opcode table
(:data:`~repro.net.protocol.OPCODES`) says ``retry`` are idempotent and
are retried after a connection failure — bounded attempts, exponential
backoff, reconnecting in between.  Writes are never retried
automatically: the frame may have been applied before the connection
died, and replaying it would double-apply.  The one exception is a failed
*connect* — the frame provably never left this process — which triggers
primary failover when a replica set is configured: the client probes the
replicas for the highest-term node now serving as primary
(``OP_REPL_PROMOTE`` made one), re-points at it, keeps its epoch floor
(read-your-writes survives the switch) and re-sends.  A resurrected old
primary is refused at the handshake with
:class:`~repro.errors.StalePrimaryError`: its fenced term is below one
this session has already observed.

Reconnecting creates a *new server session*, and session-affine state
(an open transaction, sequencing cursors) does not survive: the server
aborts the orphaned transaction and discards the cursors.  Holders of
such state register it via :meth:`OdeClient.retain_session`; while any
is registered, a connection failure raises
:class:`~repro.errors.SessionLostError` instead of transparently
reconnecting — otherwise later writes would silently autocommit on the
fresh session, outside the transaction the caller believes is open.
Every dropped connection bumps :attr:`OdeClient.generation`, so state
holders can detect between their calls that the session they were
using is gone.

Server-reported failures arrive as ``OP_ERROR`` frames carrying the
exception's class name; the client re-raises the matching class from
:mod:`repro.errors`, or the builtin lookup, arithmetic, value, type and
attribute errors a computed method may raise, so remote failures look
exactly like local ones.
Re-raised remote errors are tagged ``remote=True``: even when the class
is a :class:`~repro.errors.NetworkError` subclass (the server validates
requests with it), the connection itself is healthy and is not dropped
or retried.

Replica routing.  Constructed with ``replicas=[(host, port), ...]``,
the client spreads ``routed`` reads across the replica set, rotating
round-robin, with the primary as the fallback of last resort.  The
session invariant is *monotonic reads with read-your-writes*: the
client tracks an **epoch floor** — the highest epoch any reply it has
returned carried, commits included — and a routed reply below the
floor is discarded unseen (the replica lags this session) and the read
moves on to the next endpoint, ultimately the primary, whose epoch can
never trail an epoch it acked.  A replica that fails to answer is put
in a cooldown and the read fails over the same way.  Reads inside an
open transaction and every write bypass routing entirely — they are
session-affine to the primary.
"""

from __future__ import annotations

import itertools
import select
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.errors as errors
from repro.cdc import ChangeEvent, Subscription, summary_from_wire
from repro.errors import (
    NetworkError,
    OdeError,
    RemoteError,
    SessionLostError,
    StalePrimaryError,
)
from repro.net import protocol as P
from repro.obs.metrics import get_registry

#: First delay before a read retry; doubles per attempt.
RETRY_BACKOFF_SECONDS = 0.05

#: How long a replica sits out after a connection failure.
REPLICA_COOLDOWN_SECONDS = 1.0

#: Pump poll interval: how often the idle-delivery thread checks the
#: socket for unsolicited push frames while no request is in flight.
PUSH_POLL_SECONDS = 0.2


class _ReplicaEndpoint:
    """One replica the client may route reads to."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        # No automatic retries: a flaky replica should fail over to the
        # next endpoint immediately, not sit in a backoff loop.
        self.client = OdeClient(host, port, timeout=timeout, retries=0)
        self.down_until = 0.0


#: The builtin exceptions a server error keeps its class as: the
#: lookup, arithmetic, value, type and attribute families, those built
#: from a message alone.  A computed method that raises ``KeyError`` on
#: the server raises ``KeyError`` at a remote reader, as at a local one.
_BUILTIN_ERRORS = {cls.__name__: cls for cls in (
    LookupError, KeyError, IndexError,
    ArithmeticError, ZeroDivisionError, OverflowError, FloatingPointError,
    ValueError, UnicodeError, TypeError, AttributeError)}


def _raise_remote(payload: Dict[str, Any]) -> None:
    """Re-raise an OP_ERROR payload as its local exception class: one
    of :mod:`repro.errors` or of :data:`_BUILTIN_ERRORS`, else
    :class:`~repro.errors.RemoteError` naming the kind.

    The exception is tagged ``remote=True``: it reports the *server's*
    verdict on a request the connection delivered fine.  The retry loop
    checks the tag so a remote ``NetworkError`` (the server's request
    validation) is never mistaken for a dead connection.
    """
    kind = str(payload.get("kind", "OdeError"))
    message = str(payload.get("message", ""))
    cls = getattr(errors, kind, None)
    if isinstance(cls, type) and issubclass(cls, OdeError):
        exc = cls(message)
    elif kind in _BUILTIN_ERRORS:
        exc = _BUILTIN_ERRORS[kind](message)
    else:
        exc = RemoteError(kind, message)
    exc.remote = True
    raise exc


class OdeClient:
    """A connection to an :class:`~repro.net.server.OdeServer`."""

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 retries: int = 3,
                 replicas: Optional[Sequence[Tuple[str, int]]] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, retries)
        self._sock: Optional[socket.socket] = None
        self._interrupted = False
        # The connection's frame parser; lives and dies with _sock, so a
        # fresh session never inherits a stale partial frame.
        self._frames: Optional[P.FrameReassembler] = None
        # itertools.count, NOT iter(range(...)): a long-lived client
        # must never exhaust its id space mid-session (StopIteration
        # out of an exchange would be indistinguishable from a bug).
        self._request_ids = itertools.count(1)
        self._lock = threading.Lock()
        # Replica routing state, guarded by its own lock: routing
        # decisions happen *before* the main request lock is taken.
        self._route_lock = threading.Lock()
        self._replicas = [
            _ReplicaEndpoint(rhost, rport, timeout)
            for rhost, rport in (replicas or [])
        ]
        self._route_next = 0
        self._epoch_floor = 0
        # Highest fenced primary term this session has observed (from
        # hellos and failover probes).  A node claiming to be primary at
        # a lower term was failed over away from — writing through it
        # would split-brain, so the connect is refused.
        self._term_floor = 0
        self.server_info: Dict[str, Any] = {}
        #: Bumped every time the connection is dropped — the moment the
        #: server session (and its transaction/cursors) dies.  Session-
        #: affine holders compare it to detect that their server-side
        #: state is gone, whether or not a reconnect happened yet.
        self.generation = 0
        self._session_resources = 0   # live session-affine resources
        self._session_generation: Optional[int] = None
        # Push demux state.  _push_lock guards the two dicts; event
        # delivery itself happens outside it (Subscription has its own
        # condition).  Orphans hold events whose OP_CDC_EVENT frame
        # arrived before the subscribe reply was processed — the server
        # pump races the reply writer on purpose (register-then-ack).
        self._push_lock = threading.Lock()
        self._push_subs: Dict[int, Subscription] = {}
        self._orphan_events: Dict[int, List[ChangeEvent]] = {}
        self._pump: Optional[threading.Thread] = None
        self._pump_stop = threading.Event()

        registry = get_registry()
        self._m_bytes_in = registry.counter("net.client.bytes_in")
        self._m_bytes_out = registry.counter("net.client.bytes_out")
        self._m_retries = registry.counter("net.client.retries")
        self._m_reconnects = registry.counter("net.client.reconnects")
        self._m_request_seconds = registry.histogram("net.client.request_seconds")
        self._m_requests: Dict[int, Any] = {}
        self._m_route_replica = registry.counter("net.route.replica")
        self._m_route_primary = registry.counter("net.route.primary")
        self._m_route_stale = registry.counter("net.route.stale")
        self._m_route_failover = registry.counter("net.route.failover")
        self._m_push_events = registry.counter("net.client.push_events")
        self._m_subscribes = registry.counter("net.client.subscribes")

    # -- connection management ---------------------------------------------------

    def connect(self) -> "OdeClient":
        """Open the socket and perform the HELLO handshake."""
        with self._lock:
            self._connect_locked()
        return self

    def _connect_locked(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            failure = NetworkError(
                f"cannot connect to {self.host}:{self.port}: {exc}")
            # The frame was provably never sent, so even a write is
            # safe to re-send elsewhere — the failover path keys on it.
            failure.connect_failure = True
            raise failure from exc
        sock.settimeout(self.timeout)
        self._sock = sock
        self._frames = P.FrameReassembler()
        # After publishing the socket: an interrupt() that missed it
        # has already set the flag.
        if self._interrupted:
            self._drop_locked()
            raise NetworkError(
                f"connection to {self.host}:{self.port} interrupted")
        try:
            self.server_info = self._exchange_locked(
                P.OP_HELLO, {"version": P.PROTOCOL_VERSION})
        except OdeError:
            self._drop_locked()
            raise
        self._check_term_locked(self.server_info)

    def _check_term_locked(self, info: Dict[str, Any]) -> None:
        """Fence a resurrected old primary at the handshake.

        Terms only rise; a *primary* announcing a term below one this
        session has already observed was failed over away from, and a
        write through it would split-brain.  Replicas are not fenced
        here — their terms legitimately lag until the stream catches
        them up — the epoch floor already guards routed reads.
        """
        term = info.get("term")
        if not isinstance(term, int) or term <= 0:
            return
        with self._route_lock:
            if (info.get("role") == "primary" and term < self._term_floor):
                stale = StalePrimaryError(
                    f"{self.host}:{self.port} claims primary at term "
                    f"{term}, but this session has observed term "
                    f"{self._term_floor}")
                self._drop_locked()
                raise stale
            if term > self._term_floor:
                self._term_floor = term

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                get_registry().counter("net.teardown_error").inc()
            self._sock = None
            self._frames = None
            self.generation += 1
            # Subscriptions are session-affine: the server side died
            # with the connection, so every local one is now lost.
            with self._push_lock:
                lost = list(self._push_subs.values())
                self._push_subs.clear()
                self._orphan_events.clear()
            for subscription in lost:
                subscription.connection_lost()

    def interrupt(self) -> None:
        """End the connection from another thread: a call blocked on it
        fails at once with :class:`NetworkError`, and so does every
        later connect.  Takes no lock, since the blocked call holds it;
        :meth:`close` still releases the socket."""
        self._interrupted = True
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass   # already closed or never connected

    def close(self) -> None:
        self._pump_stop.set()
        pump = self._pump
        with self._lock:
            self._drop_locked()
        if pump is not None and pump is not threading.current_thread():
            pump.join(timeout=2.0)
        for endpoint in self._replicas:
            endpoint.client.close()

    # -- session-affine state ----------------------------------------------------

    def retain_session(self) -> None:
        """Register a live session-affine resource (an open transaction).

        While any resource is registered, a connection failure raises
        :class:`~repro.errors.SessionLostError` instead of reconnecting:
        the server has already aborted the transaction, and requests on
        a fresh session would autocommit outside it.
        """
        with self._lock:
            self._session_resources += 1
            if self._session_resources == 1:
                self._session_generation = self.generation

    def release_session(self) -> None:
        """Unregister a resource registered by :meth:`retain_session`."""
        with self._lock:
            self._session_resources = max(0, self._session_resources - 1)
            if self._session_resources == 0:
                self._session_generation = None

    def _check_session_locked(self) -> None:
        if (self._session_resources
                and self._session_generation != self.generation):
            raise SessionLostError(
                "server session lost: the connection dropped while a "
                "transaction was open; the server rolled it back — abort "
                "locally and begin again")

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def __enter__(self) -> "OdeClient":
        return self.connect()

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- replica routing ---------------------------------------------------------

    @property
    def epoch_floor(self) -> int:
        """Highest epoch any reply returned by this client has carried.

        The session's monotonic-read watermark: no read this client
        returns will ever be served below it.
        """
        with self._route_lock:
            return self._epoch_floor

    @property
    def term_floor(self) -> int:
        """Highest fenced primary term this session has observed."""
        with self._route_lock:
            return self._term_floor

    def _observe_epoch(self, epoch: Any) -> None:
        if isinstance(epoch, int):
            with self._route_lock:
                if epoch > self._epoch_floor:
                    self._epoch_floor = epoch

    def _failover_locked(self) -> bool:
        """Probe the replica set for a promoted primary and re-point.

        Runs after a *connect* failure (no frame reached the old
        primary, so re-sending is safe even for writes).  Every replica
        endpoint is asked for a fresh hello — cooldowns ignored, a dead
        probe fails fast — and the highest-term node now serving as
        primary becomes this client's primary.  The old primary's
        address joins the replica set in its place: once fenced and
        re-subscribed it will serve routed reads again.  The epoch
        floor is deliberately kept across the switch — read-your-writes
        outlives the failover.  Returns True when the primary changed.
        """
        if not self._replicas:
            return False
        with self._route_lock:
            floor = self._term_floor
        best: Optional[_ReplicaEndpoint] = None
        best_term = 0
        for endpoint in self._replicas:
            try:
                info = endpoint.client.call(
                    P.OP_HELLO, {"version": P.PROTOCOL_VERSION})
            except OdeError:
                continue
            term = info.get("term")
            term = term if isinstance(term, int) and term > 0 else 1
            if info.get("role") != "primary" or term < max(floor, 1):
                continue
            if term > best_term:
                best, best_term = endpoint, term
        if best is None:
            return False
        old = _ReplicaEndpoint(self.host, self.port, self.timeout)
        with self._route_lock:
            old.down_until = time.monotonic() + REPLICA_COOLDOWN_SECONDS
            self._replicas = [old if entry is best else entry
                              for entry in self._replicas]
            if best_term > self._term_floor:
                self._term_floor = best_term
        self.host, self.port = best.host, best.port
        best.client.close()
        self._m_route_failover.inc()
        return True

    def _routable(self, opcode: int) -> bool:
        return (bool(self._replicas)
                and P.opcode_info(opcode).routed
                # Transaction open: reads must see the session's own
                # uncommitted writes, which live only on the primary.
                and not self._session_resources)

    def _route_read(self, opcode: int,
                    payload: Optional[Dict[str, Any]]
                    ) -> Optional[Dict[str, Any]]:
        """Try the replica set; ``None`` means "ask the primary".

        Serve-then-verify: the replica answers from whatever epoch it
        has applied, and the reply is *discarded* if that epoch is below
        the session floor — a stale answer is never returned, it only
        costs the hop to the next endpoint.
        """
        with self._route_lock:
            floor = self._epoch_floor
            start = self._route_next
            self._route_next = (self._route_next + 1) % len(self._replicas)
            now = time.monotonic()
            order = [
                endpoint
                for offset in range(len(self._replicas))
                for endpoint in [
                    self._replicas[(start + offset) % len(self._replicas)]]
                if endpoint.down_until <= now
            ]
        for endpoint in order:
            try:
                reply = endpoint.client.call(opcode, payload)
            except NetworkError as exc:
                if getattr(exc, "remote", False):
                    # The replica *served* the request and rejected it;
                    # let the primary give the authoritative verdict.
                    continue
                with self._route_lock:
                    endpoint.down_until = (
                        time.monotonic() + REPLICA_COOLDOWN_SECONDS)
                self._m_route_failover.inc()
                continue
            except OdeError:
                # A data-level verdict (e.g. "no such object") from a
                # replica that may simply not have applied the commit
                # yet: only the primary can refuse authoritatively.
                continue
            except tuple(_BUILTIN_ERRORS.values()) as exc:
                if not getattr(exc, "remote", False):
                    raise
                continue  # the same, from a replica's computed method
            epoch = reply.get("epoch")
            if isinstance(epoch, int) and epoch < floor:
                self._m_route_stale.inc()
                continue
            self._observe_epoch(epoch)
            self._m_route_replica.inc()
            return reply
        self._m_route_primary.inc()
        return None

    # -- request / reply ---------------------------------------------------------

    def _read_reply_locked(self) -> P.Frame:
        """Read the next *reply* frame, dispatching any push frames.

        Unsolicited ``OP_CDC_EVENT`` frames interleave with replies on
        the same socket; the reader demuxes by opcode, not assuming the
        next frame answers its request.  Frames that arrived behind the
        reply are dispatched before it returns.
        """
        while True:
            frame = P.recv_frame(self._sock, self._frames)
            self._m_bytes_in.inc(frame.wire_size)
            if P.opcode_info(frame.opcode).rule is P.Rule.PUSH:
                self._dispatch_push(frame)
                continue
            self._dispatch_buffered_locked()
            return frame

    def _dispatch_buffered_locked(self) -> None:
        """Dispatch every complete frame buffered; only pushes may be
        there.  A reply nobody is waiting for means the stream is out of
        step: any later exchange would pair requests with the wrong
        replies, so it raises and the connection must be dropped."""
        while True:
            frame = self._frames.next_frame()
            if frame is None:
                return
            self._m_bytes_in.inc(frame.wire_size)
            if P.opcode_info(frame.opcode).rule is not P.Rule.PUSH:
                raise errors.ProtocolError(
                    f"unsolicited {P.opcode_name(frame.opcode)} frame for "
                    f"request {frame.request_id}: stream out of step")
            self._dispatch_push(frame)

    def _exchange_locked(self, opcode: int,
                         payload: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """One request and its reply on the open socket.  Lock held."""
        request_id = next(self._request_ids)
        sent = P.write_frame(self._sock, request_id, opcode, payload)
        self._m_bytes_out.inc(sent)
        frame = self._read_reply_locked()
        if frame.request_id != request_id:
            raise errors.ProtocolError(
                f"reply for request {frame.request_id}, expected {request_id}")
        if frame.opcode == P.OP_ERROR:
            _raise_remote(frame.payload)
        if frame.opcode != P.OP_REPLY:
            raise errors.ProtocolError(
                f"unexpected opcode {P.opcode_name(frame.opcode)} in reply")
        return frame.payload

    def call(self, opcode: int,
             payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Send one request; return the reply payload.

        Connection failures on idempotent (read) opcodes reconnect and
        retry with exponential backoff, up to ``retries`` extra attempts
        — unless session-affine state is registered, in which case any
        connection failure (and any reconnect that would discard that
        state) raises :class:`~repro.errors.SessionLostError` instead.

        Failover: when the *connect itself* fails — the frame provably
        never left this process, so nothing may have been applied — and
        a replica set is configured, the client probes it for a
        promoted (highest-term) primary and re-sends there, writes
        included.  At most one failover per call; any later failure
        follows the normal policy.

        An object read's stored records are decoded here, on receipt
        (:func:`~repro.net.protocol.decode_records`).
        """
        self._count_request(opcode)
        if self._routable(opcode):
            reply = self._route_read(opcode, payload)
            if reply is not None:
                return reply
        return P.decode_records(opcode, self._call_primary(opcode, payload))

    def _call_primary(self, opcode: int,
                      payload: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """:meth:`call` without the replica route, the reply as sent."""
        attempts = 1 + (self.retries if P.opcode_info(opcode).retry else 0)
        delay = RETRY_BACKOFF_SECONDS
        failed_over = False
        with self._m_request_seconds.time():
            with self._lock:
                attempt = 0
                while True:
                    try:
                        self._connect_locked()
                        self._check_session_locked()
                        result = self._exchange_locked(opcode, payload)
                        self._observe_epoch(result.get("epoch"))
                        return result
                    except errors.RemoteError:
                        raise
                    except SessionLostError:
                        raise
                    except NetworkError as exc:
                        if getattr(exc, "remote", False):
                            # The server rejected the request; the
                            # connection itself is healthy.
                            raise
                        self._drop_locked()
                        if self._session_resources:
                            raise SessionLostError(
                                "connection lost with a transaction open; "
                                "the server rolled it back") from exc
                        if (getattr(exc, "connect_failure", False)
                                and not failed_over
                                and self._failover_locked()):
                            # Doesn't consume a retry attempt: the
                            # re-send goes to a *different* server.
                            failed_over = True
                            continue
                        attempt += 1
                        if attempt >= attempts:
                            raise
                        self._m_retries.inc()
                        self._m_reconnects.inc()
                        time.sleep(delay)
                        delay *= 2

    # -- server push (CDC) --------------------------------------------------------

    def subscribe(self, db: str,
                  clusters: Optional[Sequence[str]] = None,
                  on_event=None) -> Subscription:
        """Open a push subscription: change events for *db* arrive on
        this connection as unsolicited frames instead of being polled.

        *on_event* (if given) runs on a network thread while the request
        lock is held — it must be fast, must not raise, and must never
        call back into this client; heavier consumers should drain
        :meth:`Subscription.get` from their own thread.

        Subscriptions are session-affine: if the connection drops, the
        subscription is marked lost (a terminal ``lost`` event is
        delivered) and the caller must resubscribe — there is no
        transparent re-subscribe, because the server cannot honor delta
        continuity across sessions.
        """
        payload: Dict[str, Any] = {"db": db}
        if clusters is not None:
            payload["clusters"] = [str(name) for name in clusters]
        reply = self.call(P.OP_CDC_SUBSCRIBE, payload)
        sub_id = int(reply["sub"])
        subscription = Subscription(
            self, sub_id, db, clusters=clusters,
            epoch=int(reply.get("epoch", 0)), on_event=on_event)
        # Register and drain stashed orphans atomically: the server's
        # pump may have pushed events for this sub before the subscribe
        # reply was processed, and a reader may push more the moment the
        # dict entry is visible — draining inside the lock keeps the
        # delivery order epoch-monotonic.
        with self._push_lock:
            self._push_subs[sub_id] = subscription
            orphans = self._orphan_events.pop(sub_id, [])
            for event in orphans:
                subscription.deliver(event)
        self._ensure_pump()
        self._m_subscribes.inc()
        return subscription

    def _unsubscribe(self, subscription: Subscription) -> None:
        """Called by :meth:`Subscription.close`; best-effort server side."""
        with self._push_lock:
            if self._push_subs.get(subscription.sub_id) is subscription:
                del self._push_subs[subscription.sub_id]
        if subscription.lost or not self.connected:
            return  # the server-side subscription died with the session
        try:
            self.call(P.OP_CDC_UNSUBSCRIBE, {"sub": subscription.sub_id})
        except OdeError:
            get_registry().counter("net.teardown_error").inc()

    def _dispatch_push(self, frame: P.Frame) -> None:
        """Route one unsolicited push frame; never blocks, never raises."""
        payload = frame.payload
        summary = summary_from_wire(payload)
        event = ChangeEvent(
            db=str(payload.get("db", "")), epoch=summary.epoch,
            changes=summary.changes, resync=summary.resync)
        self._m_push_events.inc()
        # Push epochs raise the session floor: once a delta at epoch E
        # is seen, a routed read must never be served below E — else a
        # lagging replica could quietly reinstate the purged stale copy.
        self._observe_epoch(summary.epoch)
        sub_id = payload.get("sub")
        with self._push_lock:
            subscription = self._push_subs.get(sub_id)
            if subscription is None:
                # Raced ahead of its own subscribe reply: stash, bounded.
                stash = self._orphan_events.setdefault(sub_id, [])
                stash.append(event)
                if len(stash) > 64:
                    top = max(item.epoch for item in stash)
                    stash[:] = [ChangeEvent(db=event.db, epoch=top,
                                            resync=True)]
                return
        subscription.deliver(event)

    def _ensure_pump(self) -> None:
        """Start the idle-delivery thread if it is not already running."""
        with self._push_lock:
            if self._pump is not None and self._pump.is_alive():
                return
            self._pump_stop.clear()
            self._pump = threading.Thread(
                target=self._pump_loop, name="ode-client-push", daemon=True)
            self._pump.start()

    def _pump_loop(self) -> None:
        """Deliver push frames while no request is in flight.

        Waits on ``select`` *without* the request lock (so callers are
        never blocked by an idle pump), then takes the lock and checks
        again without waiting: a concurrent caller may have consumed the
        bytes (its own reply) meanwhile.  The one ``recv`` it then makes
        cannot block; a partial frame stays in the reassembler for the
        next reader, pump or caller.
        """
        while not self._pump_stop.is_set():
            sock = self._sock  # racy peek; re-verified under the lock
            if sock is None:
                time.sleep(PUSH_POLL_SECONDS)
                continue
            try:
                readable, _, _ = select.select(
                    [sock], [], [], PUSH_POLL_SECONDS)
            except (OSError, ValueError):
                time.sleep(PUSH_POLL_SECONDS)  # socket closed under us
                continue
            if not readable:
                continue
            with self._lock:
                if self._sock is not sock:
                    continue  # the connection churned while we waited
                try:
                    if not select.select([sock], [], [], 0)[0]:
                        continue  # a caller took the bytes first
                    data = sock.recv(P.READ_CHUNK)
                    if data:
                        self._frames.feed(data)
                        self._dispatch_buffered_locked()
                        continue
                except (NetworkError, OSError, ValueError):
                    pass
                # EOF, a corrupt or out-of-step stream, or a descriptor
                # closed from another thread between the selects.
                self._drop_locked()

    def _count_request(self, opcode: int) -> None:
        counter = self._m_requests.get(opcode)
        if counter is None:
            counter = get_registry().counter(
                f"net.client.requests.{P.opcode_name(opcode)}")
            self._m_requests[opcode] = counter
        counter.inc()
