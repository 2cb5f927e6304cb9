"""The change log: the one buffer behind replica fetches
(:mod:`repro.repl.feed`) and CDC push (:mod:`repro.cdc.summary`)."""

from __future__ import annotations

import bisect
import threading
from typing import Callable, List, Optional

from repro.obs import get_registry
from repro.ode.wal import WalRecord

#: Log size past which the store's next idle moment checkpoints
#: (truncates) the WAL; also the bound on the change log's WAL bytes.
WAL_CHECKPOINT_BYTES = 1 << 20


class ChangeEntry:
    """One committed unit in a store's :class:`ChangeLog`."""

    __slots__ = ("epoch", "frames", "nbytes", "summary")

    def __init__(self, epoch: int, frames: List[WalRecord], nbytes: int):
        self.epoch = epoch
        #: The commit's full frame sequence (BEGIN, ops, COMMIT).
        self.frames = frames
        #: The unit's size in the WAL; the log is bounded by the sum.
        self.nbytes = nbytes
        #: Filled in by the first CDC reader (:mod:`repro.cdc.summary`)
        #: and shared by every later one.
        self.summary = None


class ChangeLog:
    """The store's committed units since :attr:`floor`, oldest first.

    The store appends each unit, local or replicated, in the store-lock
    critical section that publishes its epoch, so the entries are
    exactly every published epoch in ``(floor, tail]``.  Oldest units
    are trimmed once their WAL bytes exceed :data:`WAL_CHECKPOINT_BYTES`;
    a WAL checkpoint does not trim.  A snapshot install or a recovery
    that published epochs the log never saw resets it, raising the
    floor, and bumps :attr:`generation`.

    Readers hold their own ``after_epoch``; a reader below the floor
    has lost units and must resync.  So must a reader whose position
    was taken in an earlier generation: a term-raise rewind can reset
    the floor *below* it, and the new history's epochs up to it would
    otherwise read as already seen.
    """

    def __init__(self, floor: int):
        self._lock = threading.Lock()
        self._entries: List[ChangeEntry] = []
        self._nbytes = 0
        self._floor = floor
        self._generation = 0
        #: Called with no arguments after every append and reset, on the
        #: writer's thread under the store lock: it must be cheap and
        #: must not block.  The server points it at its event loop.
        self.on_change: Optional[Callable[[], None]] = None

    @property
    def floor(self) -> int:
        """The epoch the oldest entry extends."""
        return self._floor

    @property
    def generation(self) -> int:
        """How many times the log was reset; epochs from different
        generations belong to different histories."""
        return self._generation

    @property
    def tail(self) -> int:
        """The newest epoch in the log (the floor when it is empty)."""
        with self._lock:
            return self._entries[-1].epoch if self._entries else self._floor

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, epoch: int, frames: List[WalRecord], nbytes: int) -> None:
        with self._lock:
            self._entries.append(ChangeEntry(epoch, frames, nbytes))
            self._nbytes += nbytes
            trim = 0
            while self._nbytes > WAL_CHECKPOINT_BYTES:
                self._nbytes -= self._entries[trim].nbytes
                self._floor = self._entries[trim].epoch
                trim += 1
            del self._entries[:trim]
        self._wake()

    def reset(self, floor: int) -> None:
        with self._lock:
            self._entries = []
            self._nbytes = 0
            self._floor = floor
            self._generation += 1
        self._wake()

    def _wake(self) -> None:
        hook = self.on_change
        if hook is not None:
            try:
                hook()
            except Exception:
                get_registry().counter("store.change_log.wake_errors").inc()

    def read(self, after_epoch: int, limit: Optional[int] = None,
             generation: Optional[int] = None
             ) -> Optional[List[ChangeEntry]]:
        """Entries newer than *after_epoch*, oldest first, at most
        *limit*; ``None`` when *after_epoch* is below the floor or was
        taken in a *generation* other than the current one."""
        with self._lock:
            stale = generation is not None and generation != self._generation
            if stale or after_epoch < self._floor:
                return None
            start = bisect.bisect_right(self._entries, after_epoch,
                                        key=lambda entry: entry.epoch)
            stop = len(self._entries) if limit is None else start + limit
            return self._entries[start:stop]
