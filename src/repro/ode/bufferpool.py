"""LRU, instrumented buffer pool over a :class:`~repro.ode.pagefile.PageFile`.

The object manager never touches the page file directly: it fetches pages
through the pool, which caches a bounded number of decoded
:class:`~repro.ode.page.Page` objects, tracks pins and dirty state, and
writes dirty pages back on eviction or flush.

Write-back has one routine, :meth:`BufferPool.flush_all`: every dirty
frame leaves in one crash-atomic batch, on a flush and on an eviction
whose victim is dirty alike, so its two fsyncs are paid per batch, not
per victim.  An eviction then drops the victim alone.

Replacement is strict least-recently-used: the frames live in one
``OrderedDict`` keyed by page number, least recent first; a hit moves
its page to the end and the victim is the first unpinned page.  Why
LRU and no other policy: EXPERIMENTS.md §ABL-EVICT.

Sequential read-ahead: consecutive miss page numbers trigger a bounded
read-ahead window (``readahead`` pages, read by :meth:`prefetch`), so a
page sweep (the store rebuild at open, a scan of a cluster laid out in
OID order) streams instead of stuttering.

Prefetched pages are admitted at the recent end but counted as
``stats.prefetches``, not misses; a later fetch of a prefetched page is
an ordinary hit, and its first one is the page's admission touch, not a
re-reference (it does not move the page).

Per-pool counters live in :class:`PoolStats` (what the statistics window
shows per database); the same events also feed the process-wide
:mod:`repro.obs` registry (``bufferpool.*``), including a monotonic
page-fetch latency histogram.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Optional

from repro.errors import BufferPoolError
from repro.obs import MetricsRegistry, get_registry
from repro.ode.page import Page
from repro.ode.pagefile import PageFile

#: Pages read ahead after two consecutive miss page numbers.
DEFAULT_READAHEAD = 4


@dataclass
class PoolStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0  # pages, in writeback_batches batches
    writeback_batches: int = 0
    prefetches: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Frame:
    __slots__ = ("page", "pins", "prefetched")

    def __init__(self, page: Page, prefetched: bool = False):
        self.page = page
        self.pins = 0
        #: Admitted speculatively; the first demand access is the page's
        #: *admission* touch, not a re-reference (see fetch()).
        self.prefetched = prefetched


class BufferPool:
    """Fixed-capacity LRU page cache with pin counting.

    ``readahead`` bounds sequential prefetch (0 disables); ``metrics``
    overrides the process-wide registry (tests isolate with their own).
    """

    def __init__(self, pagefile: PageFile, capacity: int = 64,
                 readahead: int = DEFAULT_READAHEAD,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise BufferPoolError(f"capacity must be >= 1, got {capacity}")
        if readahead < 0:
            raise BufferPoolError(f"readahead must be >= 0, got {readahead}")
        self._pagefile = pagefile
        self._capacity = capacity
        #: Least recently used first.
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self._readahead = readahead
        self._last_miss: Optional[int] = None
        self.stats = PoolStats()
        registry = metrics if metrics is not None else get_registry()
        self._m_hits = registry.counter("bufferpool.hits")
        self._m_misses = registry.counter("bufferpool.misses")
        self._m_evictions = registry.counter("bufferpool.evictions")
        self._m_writebacks = registry.counter("bufferpool.writebacks")
        self._m_batches = registry.counter("bufferpool.writeback_batches")
        self._m_prefetches = registry.counter("bufferpool.prefetches")
        self._m_fetch_seconds = registry.histogram("bufferpool.fetch_seconds")

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, page_no: int) -> bool:
        return page_no in self._frames

    # -- fetch / pin -----------------------------------------------------------

    def fetch(self, page_no: int, pin: bool = False) -> Page:
        """Return the page, reading it from disk on a miss."""
        start = perf_counter()
        frame = self._frames.get(page_no)
        if frame is not None:
            self.stats.hits += 1
            self._m_hits.inc()
            if frame.prefetched:
                # First demand access of a speculatively-read page is its
                # admission touch — not a re-reference — so it keeps the
                # place the prefetch gave it.
                frame.prefetched = False
            else:
                self._frames.move_to_end(page_no)
        else:
            self.stats.misses += 1
            self._m_misses.inc()
            frame = self._admit(page_no, Page(self._pagefile.read_page(page_no)))
            sequential = (self._last_miss is not None
                          and page_no == self._last_miss + 1)
            self._last_miss = page_no
            if sequential and self._readahead:
                # Pinned meanwhile, or a pool no larger than the window
                # would evict the very page the caller is about to use.
                frame.pins += 1
                try:
                    self.prefetch(range(page_no + 1,
                                        page_no + 1 + self._readahead))
                finally:
                    frame.pins -= 1
        if pin:
            frame.pins += 1
        self._m_fetch_seconds.observe(perf_counter() - start)
        return frame.page

    def unpin(self, page_no: int) -> None:
        frame = self._frames.get(page_no)
        if frame is None or frame.pins == 0:
            raise BufferPoolError(f"page {page_no} is not pinned")
        frame.pins -= 1

    def new_page(self) -> int:
        """Allocate a fresh page in the file and cache it (dirty).

        The cached frame is dirty from birth: eviction or flush writes a
        well-formed empty page over the zeroes ``allocate_page`` put on
        disk, so a later re-fetch always sees a valid page.
        """
        page_no = self._pagefile.allocate_page()
        page = Page()
        page.dirty = True
        self._admit(page_no, page)
        return page_no

    # -- prefetch ---------------------------------------------------------------

    def prefetch(self, page_nos: Iterable[int]) -> int:
        """Hint: read the given pages into the pool without pinning.

        Out-of-range and already-cached pages are skipped.  Admission
        stops early (without raising) when every frame is pinned, when a
        pool's worth of pages has been read, or when the next admission
        would evict a page prefetched by this very call and not yet
        consumed — read-ahead that cannibalises its own batch is pure
        wasted I/O.  Returns the number of pages actually read.
        """
        loaded = 0
        for page_no in page_nos:
            if loaded >= self._capacity:
                break
            if page_no in self._frames:
                continue
            if not 1 <= page_no < self._pagefile.page_count:
                continue
            if len(self._frames) >= self._capacity:
                victim = self._victim()
                if victim is None or self._frames[victim].prefetched:
                    break
            self._admit(page_no, Page(self._pagefile.read_page(page_no)),
                        prefetched=True)
            self.stats.prefetches += 1
            self._m_prefetches.inc()
            loaded += 1
        return loaded

    # -- admission / eviction -----------------------------------------------------

    def _admit(self, page_no: int, page: Page,
               prefetched: bool = False) -> _Frame:
        self._make_room()
        frame = _Frame(page, prefetched=prefetched)
        self._frames[page_no] = frame
        return frame

    def _victim(self) -> Optional[int]:
        """The least recently used unpinned page, or ``None``."""
        for page_no, frame in self._frames.items():
            if frame.pins == 0:
                return page_no
        return None

    def _make_room(self) -> None:
        while len(self._frames) >= self._capacity:
            victim_no = self._victim()
            if victim_no is None:
                raise BufferPoolError(
                    f"all {self._capacity} frames pinned; cannot evict"
                )
            self._evict(victim_no)

    def _evict(self, page_no: int) -> None:
        if self._frames[page_no].page.dirty:
            # Crash-atomic (a torn overwrite could destroy committed
            # records no longer in the WAL), and with every other dirty
            # frame: one batch's two fsyncs serve them all.  A failed
            # batch marks nothing clean and the victim stays.
            self.flush_all()
        del self._frames[page_no]
        self.stats.evictions += 1
        self._m_evictions.inc()

    # -- durability -------------------------------------------------------------

    def flush_all(self) -> None:
        """Write every dirty page back in one crash-atomic batch.

        All dirty images go through
        :meth:`~repro.ode.pagefile.PageFile.write_pages_atomic`, so a
        crash mid-flush can never leave a torn page: either the
        double-write journal restores the new images at reopen or the
        old images are still intact (and the WAL redoes the logical
        changes).  Frames are marked clean only after the batch lands.
        """
        images = {page_no: frame.page.to_bytes()
                  for page_no, frame in self._frames.items()
                  if frame.page.dirty}
        self._pagefile.write_pages_atomic(images)
        for page_no in images:
            self._frames[page_no].page.dirty = False
        if images:
            self.stats.writebacks += len(images)
            self.stats.writeback_batches += 1
            self._m_writebacks.inc(len(images))
            self._m_batches.inc()

    def pinned_pages(self) -> list:
        """Page numbers currently pinned (ascending)."""
        return sorted(no for no, frame in self._frames.items() if frame.pins)

    def invalidate(self) -> int:
        """Drop cached *unpinned* pages after flushing everything.

        Contract: pinned frames are never dropped — a pin is a promise
        that the caller holds a reference to the frame's page object, so
        discarding it would silently corrupt pin accounting (``unpin``
        on a re-read frame would raise).  Pinned frames survive with
        their pin counts intact; everything else (flushed clean first)
        is forgotten.  Returns the number of frames dropped.
        """
        self.flush_all()
        dropped = 0
        for page_no in list(self._frames):
            if self._frames[page_no].pins:
                continue
            del self._frames[page_no]
            dropped += 1
        self._last_miss = None
        return dropped
