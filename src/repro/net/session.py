"""The server-side session: one connected client's view of the server.

The paper spawns a *db-interactor* per open database and an
*object-interactor* per browsed class (§4.6); over the network those
collapse into one session per connection holding the same state — which
databases the client opened, the sequencing cursors it opened through
``RemoteObjectManager.cursor``, and its open transaction.

Dispatch discipline (MVCC):

* read opcodes take **no database lock**: each request pins a store
  snapshot (one commit epoch) for its duration, so readers never block
  behind a writer and never observe a half-applied transaction.  Every
  read reply reports the ``epoch`` it was served at;
* a server-side sequencing cursor is a pinned snapshot plus a class:
  a step reads one window of member numbers past the client's position
  from that snapshot, lock-free, and ``reset`` refreshes the snapshot to
  the newest committed epoch.  The position lives on the client;
* a session reading the database *it has an open transaction on* reads
  through the transaction overlay instead (read-your-writes);
* write opcodes split in two: :meth:`ServerSession.write_prepare` —
  the cheap part, overlay apply and epoch mint (``commit_stage``) —
  and ``commit_wait``, the fsync on the store's shared group-commit
  barrier.  The session takes **no lock** itself: whoever drives it
  serializes writer against writer around ``write_prepare`` (the
  server's connection layer holds a per-database ``asyncio.Lock``
  there, and across an explicit transaction from ``begin`` until
  ``commit``/``abort`` stages it) and waits with that lock released,
  so concurrent sessions' commits batch into one ``wal.group.sync``
  instead of queueing at disk latency;
* no reply is sent (and no cache-visible epoch reported) until
  ``commit_wait`` confirms the staged epoch is durable *and*
  published, so clients never observe an unacknowledged commit;
* a session that disconnects mid-transaction is aborted, so a crashed
  client never wedges the database.

How each opcode is served is its rule in the opcode table
(:data:`~repro.net.protocol.OPCODES`).  CDC subscriptions and the
replication long-poll park on the event loop, so the connection layer
(:mod:`repro.net.aserver`) serves those on-loop streams itself; every
other request goes through :meth:`ServerSession.dispatch`, the one
synchronous entry point, which switches on the rule.
"""

from __future__ import annotations

import asyncio
import itertools
import math
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    NetworkError,
    ObjectNotFoundError,
    OdeError,
    ReadOnlyReplicaError,
    StorageError,
    TransactionError,
)
from repro.net import protocol as P
from repro.obs import get_registry
from repro.ode.cluster import Cluster
from repro.ode.database import BEHAVIOURS_FILE
from repro.ode.mvcc import Snapshot
from repro.ode.oid import Oid

#: Largest number of buffers one scan batch, or of member numbers one
#: cursor window, may carry.
MAX_SCAN_BATCH = 1024


def _batch_limit(payload: Dict[str, Any]) -> int:
    """A request's ``limit`` (64 when absent), clamped to
    ``[1, MAX_SCAN_BATCH]``."""
    return max(1, min(int(payload.get("limit", 64)), MAX_SCAN_BATCH))


class HostedDatabase:
    """One database the server hosts, and the loop-side state of the
    readers of its change log."""

    def __init__(self, database) -> None:
        self.database = database
        #: Set, and replaced by a fresh one, on the loop after each
        #: change-log append: every reader parked on this database
        #: awaits the current event.
        self.changed = asyncio.Event()
        #: Live CDC subscriptions on this database, over all sessions.
        self.subscribers = 0

    def wake(self) -> None:
        """Wake every parked reader of this database (loop thread)."""
        changed, self.changed = self.changed, asyncio.Event()
        changed.set()


class ServerSession:
    """Per-connection request dispatcher."""

    def __init__(self, server, session_id: int):
        self.server = server
        self.session_id = session_id
        #: id -> (pinned snapshot, cluster read through it)
        self._cursors: Dict[int, Tuple[Snapshot, Cluster]] = {}
        self._cursor_ids = itertools.count(1)
        self._tx_database: Optional[str] = None  # db our transaction is on
        self._m_read_lockfree = get_registry().counter("net.read_lockfree")

    # -- helpers ----------------------------------------------------------------

    def hosted(self, payload: Dict[str, Any]) -> HostedDatabase:
        """The hosted database a request names under ``"db"``."""
        name = payload.get("db")
        if not isinstance(name, str) or not name:
            raise NetworkError("request names no database")
        return self.server.hosted(name)

    @property
    def tx_database(self) -> Optional[str]:
        """Name of the database this session has a transaction open on."""
        return self._tx_database

    @staticmethod
    def _oid(payload: Dict[str, Any], key: str = "oid") -> Oid:
        value = payload.get(key)
        if isinstance(value, Oid):
            return value
        if isinstance(value, str):
            return Oid.parse(value)
        raise NetworkError(f"request carries no OID under {key!r}")

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Connection gone: drop cursors, abort an open transaction."""
        for snapshot, _cluster in self._cursors.values():
            snapshot.close()
        self._cursors.clear()
        if self._tx_database is not None:
            hosted = self.server.hosted(self._tx_database)
            try:
                hosted.database.objects.abort()
            except OdeError:
                # The store already resolved the transaction (e.g. a
                # failed commit rolled back); nothing left to abort.
                get_registry().counter("net.teardown_error").inc()
            finally:
                self._tx_database = None

    # -- dispatch ----------------------------------------------------------------

    def dispatch(self, opcode: int, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request by its rule in the opcode table; a write
        is ``write_prepare`` then ``commit_wait``."""
        match P.opcode_info(opcode).rule:
            case P.Rule.PINNED_READ:
                return self._dispatch_read(
                    _HANDLERS[opcode], self.hosted(payload), payload)
            case P.Rule.WRITE | P.Rule.AUTOCOMMIT:
                return self._dispatch_write(opcode, payload)
            case P.Rule.CURSOR:
                # Lock-free: every server-side cursor owns a pinned
                # store snapshot, so a window needs no coordination with
                # writers or vacuum.  Opening must NOT run inside an
                # ambient pin — the cursor has to own (and outlive the
                # request with) its snapshot.
                self._m_read_lockfree.inc()
                return _HANDLERS[opcode](self, payload)
            case P.Rule.NO_DATABASE | P.Rule.EXECUTOR:
                # No ambient pin: a replication snapshot pins its own
                # epoch for exactly the copy-out, promotion reads none.
                return _HANDLERS[opcode](self, payload)
        raise NetworkError(f"unknown opcode {P.opcode_name(opcode)}")

    def _dispatch_read(self, handler, hosted: HostedDatabase,
                       payload: Dict[str, Any]) -> Dict[str, Any]:
        """Serve a read from a pinned snapshot; no database lock.

        The snapshot pins one commit epoch for the whole request, so a
        multi-object read (scan batch, get_objects) is internally
        consistent even while another session commits.  The exception is
        a session reading the database it is itself writing: that one
        must see its own uncommitted work, so it reads through the
        transaction overlay (the store routes those through ``get``).
        """
        if self._tx_database == hosted.database.name:
            result = handler(self, payload)
            result.setdefault("epoch", hosted.database.store.epoch)
            return result
        self._m_read_lockfree.inc()
        with hosted.database.objects.pinned() as snapshot:
            result = handler(self, payload)
            result.setdefault("epoch", snapshot.epoch)
        return result

    def _dispatch_write(self, opcode: int,
                        payload: Dict[str, Any]) -> Dict[str, Any]:
        """The synchronous write path: prepare, then wait.

        ``write_prepare`` covers everything up to (and including) commit
        staging; the durability wait runs here.  No lock is taken — a
        caller driving several sessions at once serializes writers
        itself, as the connection layer does.
        """
        result, staged, hosted = self.write_prepare(opcode, payload)
        if staged is not None:
            # Index maintenance is commit-driven (the store's apply
            # listener), so a failed commit never touched an index and
            # the store's own recovery re-derives them — nothing to
            # clean up here beyond propagating the error.
            hosted.database.objects.commit_wait(staged)
        # Report the epoch after the write so the client's epoch-keyed
        # cache learns about its own commits without an extra round trip.
        result.setdefault("epoch", hosted.database.store.epoch)
        return result

    def write_prepare(
            self, opcode: int, payload: Dict[str, Any],
    ) -> Tuple[Dict[str, Any], Optional[int], HostedDatabase]:
        """Run one write opcode up to (and including) commit staging.

        Returns ``(result, staged_epoch, hosted)``.  ``staged_epoch``
        is the epoch ``commit_stage`` minted when the op staged a
        commit (autocommit ops, ``OP_COMMIT``), else None.  The caller
        owns the rest of the pipeline: release whatever serializes
        writers, then ``objects.commit_wait(staged_epoch)`` — in that
        order, so a long fsync never blocks the next session's writes
        and concurrent commits batch into one ``wal.group.sync``.

        The cheap serialized part (overlay apply + epoch mint) is
        here, the blocking part is the caller's.
        """
        hosted = self.hosted(payload)
        if self.server.is_replica:
            primary = self.server.primary_address
            raise ReadOnlyReplicaError(
                f"{hosted.database.name!r} is a read replica"
                + (f"; writes go to the primary at {primary}"
                   if primary else ""))
        objects = hosted.database.objects
        name = hosted.database.name
        if self._tx_database not in (None, name):
            raise TransactionError(
                f"transaction open on {self._tx_database!r}; cannot "
                f"write {name!r}")
        if opcode == P.OP_COMMIT or opcode == P.OP_ABORT:
            # The transaction's end has no handler.  A commit stages
            # here and waits in the caller: a long fsync blocks only
            # this session's reply.
            if self._tx_database is None:
                raise TransactionError("no transaction open on this session")
            staged = None
            try:
                if opcode == P.OP_COMMIT:
                    staged = objects.commit_stage()
                else:
                    objects.abort()
            finally:
                self._tx_database = None
            return {}, staged, hosted
        handler = _HANDLERS[opcode]
        if (self._tx_database is not None
                or P.opcode_info(opcode).rule is not P.Rule.AUTOCOMMIT):
            return handler(self, payload), None, hosted
        # Pipelined autocommit: only overlay apply + epoch mint (handler
        # + commit_stage) happen here; the fsync happens on the shared
        # group-commit barrier in the caller, so concurrent sessions'
        # commits batch.
        objects.begin()
        try:
            result = handler(self, payload)
            staged = objects.commit_stage()
        except BaseException:
            if hosted.database.store.in_transaction:
                objects.abort()
            raise
        return result, staged, hosted

    # -- handshake / catalog ------------------------------------------------------

    def op_hello(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        version = payload.get("version")
        if version != P.PROTOCOL_VERSION:
            raise NetworkError(
                f"protocol version mismatch: client {version!r}, "
                f"server {P.PROTOCOL_VERSION}")
        # Per-database fenced terms, plus their max as the node's
        # headline term: what failover probes compare and what a client
        # checks against its term floor before trusting a "primary".
        terms = {name: self.server.hosted(name).database.store.term
                 for name in self.server.database_names()}
        return {
            "version": P.PROTOCOL_VERSION,
            "server": "repro.net",
            "role": self.server.role,
            "databases": self.server.database_names(),
            "term": max(terms.values()) if terms else 1,
            "terms": terms,
        }

    def op_ping(self, _payload: Dict[str, Any]) -> Dict[str, Any]:
        return {}

    def op_list_databases(self, _payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"databases": self.server.database_names()}

    def op_open_database(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        database = hosted.database
        return {
            "name": database.name,
            "schema": database.schema.to_dict(),
            "icon": database.icon,
        }

    def op_get_display_modules(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        modules: Dict[str, str] = {}
        display_dir = hosted.database.display_dir
        if display_dir.is_dir():
            for path in sorted(display_dir.glob("*.py")):
                modules[path.name] = path.read_text(encoding="utf-8")
        return {"modules": modules}

    # -- object reads --------------------------------------------------------------

    def op_get_object(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        oid = self._oid(payload)
        objects = hosted.database.objects
        (record,) = objects.find_records([oid])
        if record is None:
            raise ObjectNotFoundError(f"no object {oid}")
        return _records_reply(objects, [(oid, record)])

    def op_get_objects(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        objects = hosted.database.objects
        oids = [Oid.parse(text) if isinstance(text, str) else text
                for text in payload.get("oids", [])]
        return _records_reply(objects, zip(oids, objects.find_records(oids)))

    def op_scan_cluster(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One batch of a cluster scan, keyed by OID number.

        ``after`` is the last OID number the client has seen (-1 to start);
        the batch carries up to ``limit`` records with larger numbers, in
        sequencing order, so a scan stays correct even if the cluster
        changes between batches.
        """
        hosted = self.hosted(payload)
        class_name = payload.get("class", "")
        after = int(payload.get("after", -1))
        limit = _batch_limit(payload)
        objects = hosted.database.objects
        cluster = objects.cluster(class_name)
        # One bounded read, one past the batch: a spare number is what
        # says another batch follows.
        numbers = cluster.range(after, limit + 1)
        done = len(numbers) <= limit
        del numbers[limit:]
        oids = [cluster.oid(number) for number in numbers]
        records = objects.find_records(oids)
        if None in records:
            missing = oids[records.index(None)]
            raise ObjectNotFoundError(f"no object {missing}")
        reply = _records_reply(objects, zip(oids, records))
        reply.update(done=done, after=numbers[-1] if numbers else after)
        return reply

    def op_cluster_numbers(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        class_name = payload.get("class", "")
        hosted.database.schema.get_class(class_name)
        # Through the manager, not the raw store: the manager resolves
        # membership against the request's pinned snapshot.
        cluster = hosted.database.objects.cluster(class_name)
        return {"numbers": cluster.numbers()}

    def op_count(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        return {"count": hosted.database.objects.count(payload.get("class", ""))}

    def op_exists(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        return {"exists": hosted.database.objects.exists(self._oid(payload))}

    def op_version_history(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        history = hosted.database.objects.versions.history(self._oid(payload))
        return {
            "history": [
                {"seq": record.sequence, "state": dict(record.state)}
                for record in history
            ],
        }

    # -- planned selection (pushdown over the wire) --------------------------------

    def _planned(self, hosted: HostedDatabase, payload: Dict[str, Any]):
        """Parse and plan one wire selection; runs inside the request's
        pinned snapshot, so the probe answers at the request's epoch."""
        from repro.core.queryplan import SelectionPlanner
        from repro.ode.opp.parser import parse_expression

        class_name = payload.get("class", "")
        hosted.database.schema.get_class(class_name)
        expr = parse_expression(str(payload.get("condition", "")))
        force = payload.get("force") or None
        if force not in (None, "scan", "index"):
            raise NetworkError(f"bad plan force {force!r}")
        planner = SelectionPlanner(
            hosted.database, privileged=bool(payload.get("privileged")))
        return planner, planner.plan(class_name, expr, force=force)

    def op_select(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Server-side planned selection: the client ships the condition
        string, the server plans (cost model + indexes + statistics) and
        executes, and the reply carries the matches' stored records plus
        the EXPLAIN text of the plan that produced them."""
        hosted = self.hosted(payload)
        planner, plan = self._planned(hosted, payload)
        reply = _records_reply(hosted.database.objects, (
            (oid, record) for oid, record, _buffer in planner.matches(plan)))
        reply.update(access=plan.access, explain=plan.explain())
        return reply

    def op_explain(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Plan only — the wire face of EXPLAIN."""
        hosted = self.hosted(payload)
        _planner, plan = self._planned(hosted, payload)
        return {
            "explain": plan.explain(),
            "access": plan.access,
            "index_attribute": plan.index_attribute,
            "estimated_rows": plan.estimated_rows,
            "estimated_cost": plan.estimated_cost,
            "scan_cost": plan.scan_cost,
            "cardinality": plan.cardinality,
        }

    # -- writes ---------------------------------------------------------------------

    def op_new_object(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        oid = payload.get("oid")
        oid = Oid.parse(oid) if isinstance(oid, str) else None
        created = hosted.database.objects.new_object(
            payload.get("class", ""), payload.get("values") or {}, oid=oid)
        return {"oid": str(created)}

    def op_update(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        objects = hosted.database.objects
        oid = self._oid(payload)
        record = objects.update_record(oid, payload.get("updates") or {})
        return _records_reply(objects, [(oid, record)])

    def op_delete(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        hosted.database.objects.delete(self._oid(payload))
        return {}

    def op_create_index(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Create (and persist) a server-side index; the build runs under
        the database's write lock so it captures one committed state."""
        hosted = self.hosted(payload)
        hosted.database.create_index(
            payload.get("class", ""), payload.get("attribute", ""))
        return {}

    def op_drop_index(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        hosted.database.drop_index(
            payload.get("class", ""), payload.get("attribute", ""))
        return {}

    # -- transactions -----------------------------------------------------------------

    def op_begin(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        if self._tx_database is not None:
            raise TransactionError(
                f"session already has a transaction on {self._tx_database!r}")
        txid = hosted.database.objects.begin()
        self._tx_database = hosted.database.name
        return {"txid": txid}

    # -- server-side sequencing cursors (RemoteObjectManager.cursor) ---------------

    def op_cursor_open(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        database = hosted.database
        class_name = payload.get("class", "")
        database.schema.get_class(class_name)
        snapshot = database.objects.snapshot()
        cursor_id = next(self._cursor_ids)
        self._cursors[cursor_id] = (
            snapshot, Cluster(snapshot, database.name, class_name))
        return {"cursor": cursor_id, "epoch": snapshot.epoch}

    def _cursor(self, payload: Dict[str, Any]) -> Tuple[Snapshot, Cluster]:
        cursor_id = payload.get("cursor")
        entry = self._cursors.get(cursor_id)
        if entry is None:
            raise NetworkError(f"no cursor {cursor_id!r} in this session")
        return entry

    def _cursor_window(self, payload: Dict[str, Any],
                       forward: bool) -> Dict[str, Any]:
        """One window of a sequencing walk: up to ``limit`` member
        numbers past ``from`` in the step's direction, nearest first,
        read from the cursor's pinned snapshot.  ``from: None`` starts
        at the end the walk leaves from (the front for ``next``, the
        back for ``previous``)."""
        snapshot, cluster = self._cursor(payload)
        start = payload.get("from")
        if start is None:
            start = -1 if forward else math.inf
        elif type(start) is not int:
            raise NetworkError(f"cursor window from {start!r}: not an int")
        return {"numbers": cluster.range(start, _batch_limit(payload),
                                         forward),
                "epoch": snapshot.epoch}

    def op_cursor_next(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._cursor_window(payload, True)

    def op_cursor_previous(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._cursor_window(payload, False)

    def op_cursor_reset(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        snapshot, _cluster = self._cursor(payload)
        return {"epoch": snapshot.refresh()}

    def op_cursor_close(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        entry = self._cursors.pop(payload.get("cursor"), None)
        if entry is not None:
            entry[0].close()  # release the cursor's snapshot pin
        return {}

    # -- replication -------------------------------------------------------------------

    def op_repl_snapshot(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Full state for replica bootstrap/resync, at one epoch."""
        hosted = self.hosted(payload)
        database = hosted.database
        with database.objects.pinned() as snapshot:
            objects = [[str(oid), snapshot.get(oid)]
                       for oid in snapshot.oids()]
            epoch = snapshot.epoch
        modules: Dict[str, str] = {}
        display_dir = database.display_dir
        if display_dir.is_dir():
            for path in sorted(display_dir.glob("*.py")):
                modules[path.name] = path.read_text(encoding="utf-8")
        behaviours = database.directory / BEHAVIOURS_FILE
        return {
            "epoch": epoch,
            "term": database.store.term,
            "objects": objects,
            "schema": database.schema.to_dict(),
            "icon": database.icon,
            "modules": modules,
            # The method bodies computed attributes run, so a replica
            # answers a read with the primary's computed values.
            "behaviours": (behaviours.read_text(encoding="utf-8")
                           if behaviours.is_file() else ""),
            # Index *definitions* ship with the snapshot so the replica
            # builds (and then maintains, through the store's derived-state
            # hook) the
            # same indexes the primary serves.
            "indexes": [[class_name, attribute] for class_name, attribute
                        in database.objects.indexes.definitions()],
        }

    # -- maintenance -------------------------------------------------------------------

    def op_stats(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The database's own numbers, with the server's beside them."""
        hosted = self.hosted(payload)
        database = hosted.database
        registry = get_registry()
        return {
            "role": self.server.role,
            "term": database.store.term,
            "applied_epoch": database.store.epoch,
            "replication": self.server.replication_stats(database.name),
            **database.server_stats(),
            "read_lockfree": self._m_read_lockfree.value,
            "cdc": {
                "subscribers": hosted.subscribers,
                "events": registry.counter("cdc.events").value,
                "coalesced": registry.counter("cdc.coalesced").value,
            },
        }

    def op_vacuum(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        hosted = self.hosted(payload)
        if self._tx_database is not None:
            raise StorageError("cannot vacuum with a transaction open")
        return {"reclaimed": hosted.database.vacuum()}

    def op_repl_promote(self, _payload: Dict[str, Any]) -> Dict[str, Any]:
        """Admin: promote this replica server to primary.

        Whole-server, not per-database: a primary serving half its
        databases writable and half read-only following a dead upstream
        is not a topology anyone asked for.  Returns the freshly minted
        per-database terms; they are already fsynced when the reply is
        sent, so a client that sees this ack may rely on the fence.
        """
        return {"role": self.server.role, "terms": self.server.promote()}


def _records_reply(objects, rows) -> Dict[str, Any]:
    """The reply to a read: *rows* are ``(oid, stored record)``, the
    record ``None`` where *oid* is absent; each record ships as it is
    (see :func:`protocol.records_reply`)."""
    shipped = []
    missing = []
    for oid, record in rows:
        if record is None:
            missing.append(str(oid))
        else:
            shipped.append((record, *objects.shipped(oid, record)))
    return P.records_reply(shipped, missing)


#: The rules :meth:`ServerSession.dispatch` serves; the connection layer
#: serves the on-loop streams itself, and nothing serves the rest.
_SESSION_RULES = (P.Rule.NO_DATABASE, P.Rule.PINNED_READ, P.Rule.CURSOR,
                  P.Rule.WRITE, P.Rule.AUTOCOMMIT, P.Rule.EXECUTOR)


def _handlers() -> Dict[int, Any]:
    """``ServerSession.op_<name>`` for every row the session serves,
    read from the opcode table.  A served row without a handler, or a
    handler without a served row, fails the import.  ``commit`` and
    ``abort`` have none: :meth:`ServerSession.write_prepare` ends the
    transaction itself."""
    handlers = {}
    for row in P.OPCODES.values():
        if row.rule not in _SESSION_RULES or row.code in (P.OP_COMMIT,
                                                          P.OP_ABORT):
            continue
        method = getattr(ServerSession, f"op_{row.name}", None)
        if method is None:
            raise ImportError(f"no handler ServerSession.op_{row.name}")
        handlers[row.code] = method
    served = {f"op_{P.opcode_name(code)}" for code in handlers}
    strays = {name for name in vars(ServerSession)
              if name.startswith("op_")} - served
    if strays:
        raise ImportError(f"handlers without a served row: {sorted(strays)}")
    return handlers


#: Each served opcode's handler.
_HANDLERS = _handlers()
