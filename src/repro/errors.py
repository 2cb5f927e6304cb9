"""Exception hierarchy for the OdeView reproduction.

Every error raised by this package derives from :class:`OdeError`, so callers
can catch one base class at the library boundary.  Subsystems get their own
intermediate bases (storage, schema, language, windowing, ...), mirroring the
module layout described in DESIGN.md.
"""

from __future__ import annotations


class OdeError(Exception):
    """Base class for every error raised by the repro package."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(OdeError):
    """Base class for errors in the page/buffer/WAL/store layer."""


class PageError(StorageError):
    """A slotted-page operation failed (bad slot, corrupt header, ...)."""


class PageFullError(PageError):
    """The record does not fit in the page's free space."""


class BufferPoolError(StorageError):
    """Buffer-pool misuse: unpinning an unpinned page, pool exhausted, ..."""


class WalError(StorageError):
    """The write-ahead log is corrupt or was misused."""


class CodecError(StorageError):
    """A value could not be serialised or deserialised."""


class ObjectNotFoundError(StorageError):
    """No object with the requested OID exists (or it was deleted)."""


class TransactionError(StorageError):
    """Transaction misuse: commit without begin, nested begin, ..."""


class GroupCommitError(StorageError):
    """The group-commit leader died mid-flush; the batch outcome is unknown.

    Raised to *followers* parked on the commit barrier when the thread
    elected to flush their batch crashed (a simulated process death).
    The dying leader re-raises its own crash; everyone else gets this.
    Unlike a transient flush failure, no recovery is attempted — a dead
    process does not tidy up — so the store must be reopened to learn
    which commits in the batch actually reached stable storage.
    """


class FaultInjectedError(StorageError):
    """An I/O failure injected by :mod:`repro.faultsim`.

    Raised from a storage ``fault_gate`` to stand in for a real device
    error (EIO, ENOSPC, ...).  It subclasses :class:`StorageError` so
    the store's error handling treats it exactly like the failures it
    simulates; production code never raises it.
    """


# ---------------------------------------------------------------------------
# Data model / schema
# ---------------------------------------------------------------------------

class SchemaError(OdeError):
    """Schema-level failure: unknown class, duplicate class, bad inheritance."""


class TypeError_(SchemaError):
    """A value does not conform to its declared O++ type.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class AccessError(SchemaError):
    """Encapsulation violation: private member accessed without privilege."""


class ConstraintViolationError(OdeError):
    """An object constraint failed during commit/update."""

    def __init__(self, class_name: str, constraint_name: str, message: str = ""):
        self.class_name = class_name
        self.constraint_name = constraint_name
        detail = message or f"constraint {constraint_name!r} violated on class {class_name!r}"
        super().__init__(detail)


class TriggerError(OdeError):
    """A trigger body raised or a trigger was misdeclared."""


# ---------------------------------------------------------------------------
# O++ language front end
# ---------------------------------------------------------------------------

class OppError(OdeError):
    """Base class for O++ lexing/parsing/checking errors."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")


class LexError(OppError):
    """The tokeniser met an invalid character or unterminated literal."""


class ParseError(OppError):
    """The parser met an unexpected token."""


class TypeCheckError(OppError):
    """Static checking of a class definition or predicate failed."""


class PredicateError(OdeError):
    """A selection predicate failed to evaluate against an object."""


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

class WindowError(OdeError):
    """Window-tree misuse: unknown window, duplicate name, closed parent."""


class LayoutError(WindowError):
    """Window geometry could not be solved (cycle, unknown anchor, ...)."""


class RasterError(WindowError):
    """A raster image operation failed (bad dimensions, bad data length)."""


# ---------------------------------------------------------------------------
# Dynamic linking of display functions
# ---------------------------------------------------------------------------

class DynlinkError(OdeError):
    """A display module could not be located, loaded, or executed."""


class DisplayProtocolError(DynlinkError):
    """A display function returned something that is not DisplayResources."""


# ---------------------------------------------------------------------------
# Process model
# ---------------------------------------------------------------------------

class ProcessError(OdeError):
    """Actor/process-manager misuse."""


class ProcessCrashedError(ProcessError):
    """A call reached an interactor that has crashed, or crashed it."""


# ---------------------------------------------------------------------------
# Page/object server and remote-database client
# ---------------------------------------------------------------------------

class NetworkError(OdeError):
    """The client could not reach the server (connect, timeout, framing)."""


class ProtocolError(NetworkError):
    """A wire frame was malformed (bad magic, CRC mismatch, bad payload)."""


class SessionLostError(NetworkError):
    """The connection dropped while session-affine state was live.

    A server session holds state that does not survive a reconnect: an
    open transaction (aborted server-side when the connection dies) and
    sequencing cursors.  Requests that depend on that state fail with
    this error instead of silently running against a fresh session.
    """


class RemoteError(OdeError):
    """The server rejected a request; carries the remote exception kind."""

    def __init__(self, kind: str, message: str = ""):
        self.kind = kind
        super().__init__(message or kind)


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------

class ReplicationError(OdeError):
    """Base class for WAL-shipping replication failures."""


class ReadOnlyReplicaError(ReplicationError):
    """A write reached a read replica; writes must go to the primary.

    The message names the primary's address when the replica knows it,
    so a misconfigured client can be redirected by hand.
    """


class ReplicaDivergedError(ReplicationError):
    """A replica holds state the primary's stream cannot extend.

    Applied epochs must form a contiguous prefix of the primary's
    committed epochs; seeing an apply that would regress or leapfrog
    the replica's epoch means the topology is wrong (two primaries, a
    restored backup, a snapshot older than the replica) and blind
    application would corrupt the replica silently.
    """


class StalePrimaryError(ReplicationError):
    """A node claiming to be primary carries a superseded term.

    Primary terms are durably minted at promotion and only ever rise;
    a unit, snapshot, or hello stamped with a term below one this node
    has already observed comes from a primary that was failed over
    away from — accepting its writes (or writing through it) would
    split-brain the cluster.  The stale node must be fenced: demoted
    to a replica of the current-term primary and resynced.
    """


# ---------------------------------------------------------------------------
# OdeView application layer
# ---------------------------------------------------------------------------

class OdeViewError(OdeError):
    """Application-level misuse of the OdeView front end."""


class SessionError(OdeViewError):
    """The scripted session driver was asked to do something impossible."""


class ProjectionError(OdeViewError):
    """Bad projection request (unknown attribute, bad bit vector)."""


class SelectionError(OdeViewError):
    """Bad selection request (attribute not in selectlist, bad predicate)."""
