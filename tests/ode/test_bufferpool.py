"""Tests for the LRU buffer pool."""

import pytest

from repro.errors import BufferPoolError
from repro.ode.bufferpool import BufferPool
from repro.ode.page import PAGE_SIZE
from repro.ode.pagefile import PageFile


@pytest.fixture
def pagefile(tmp_path):
    with PageFile(tmp_path / "data.pages") as pf:
        yield pf


def test_capacity_must_be_positive(pagefile):
    with pytest.raises(BufferPoolError):
        BufferPool(pagefile, capacity=0)


def test_new_page_is_cached_and_dirty(pagefile):
    pool = BufferPool(pagefile, capacity=4)
    page_no = pool.new_page()
    page = pool.fetch(page_no)
    assert page.dirty
    assert pool.stats.hits == 1  # the fetch hit the cached frame


def test_fetch_miss_then_hit(pagefile):
    pool = BufferPool(pagefile, capacity=4)
    page_no = pool.new_page()
    pool.flush_all()
    pool.invalidate()
    pool.fetch(page_no)
    pool.fetch(page_no)
    assert pool.stats.misses == 1
    assert pool.stats.hits == 1


def test_eviction_writes_back_dirty_pages(pagefile):
    pool = BufferPool(pagefile, capacity=2)
    first = pool.new_page()
    pool.fetch(first).insert(b"persisted")
    # Evict `first` by filling the pool.
    pool.new_page()
    pool.new_page()
    assert pool.stats.evictions >= 1
    page = pool.fetch(first)  # re-read from disk
    assert page.records() == [b"persisted"]


def test_lru_evicts_least_recent(pagefile):
    pool = BufferPool(pagefile, capacity=2)
    a = pool.new_page()
    b = pool.new_page()
    pool.flush_all()
    pool.fetch(a)  # a is now most recent
    pool.new_page()  # must evict b
    pool.fetch(a)
    assert pool.stats.hits >= 2  # a stayed cached


def test_pinned_pages_not_evicted(pagefile):
    pool = BufferPool(pagefile, capacity=2)
    pinned = pool.new_page()
    pool.fetch(pinned, pin=True)
    pool.new_page()
    pool.new_page()  # must evict the unpinned one
    # pinned page still cached: fetching is a hit
    hits_before = pool.stats.hits
    pool.fetch(pinned)
    assert pool.stats.hits == hits_before + 1
    pool.unpin(pinned)


def test_all_pinned_raises(pagefile):
    pool = BufferPool(pagefile, capacity=1)
    page_no = pool.new_page()
    pool.fetch(page_no, pin=True)
    with pytest.raises(BufferPoolError):
        pool.new_page()


def test_unpin_without_pin_rejected(pagefile):
    pool = BufferPool(pagefile, capacity=2)
    page_no = pool.new_page()
    with pytest.raises(BufferPoolError):
        pool.unpin(page_no)


def test_flush_all_clears_dirty(pagefile):
    pool = BufferPool(pagefile, capacity=4)
    page_no = pool.new_page()
    pool.fetch(page_no).insert(b"x")
    pool.flush_all()
    assert not pool.fetch(page_no).dirty


def test_hit_rate(pagefile):
    pool = BufferPool(pagefile, capacity=4)
    assert pool.stats.hit_rate == 0.0
    page_no = pool.new_page()
    pool.fetch(page_no)
    assert pool.stats.hit_rate == 1.0


# -- LRU replacement order -------------------------------------------------------

def _fill_pages(pagefile, count):
    """Allocate pages directly in the file (no pool involved)."""
    return [pagefile.allocate_page() for _ in range(count)]


def test_pool_hit_miss_eviction_sequence(pagefile):
    pages = _fill_pages(pagefile, 5)
    pool = BufferPool(pagefile, capacity=3, readahead=0)
    for page_no in pages[:3]:
        pool.fetch(page_no)
    assert pool.stats.misses == 3 and pool.stats.hits == 0
    pool.fetch(pages[0])
    assert pool.stats.hits == 1
    pool.fetch(pages[3])          # over capacity: someone is evicted
    pool.fetch(pages[4])
    assert pool.stats.evictions == 2
    assert len(pool) == 3


def test_pool_all_pinned_exhaustion(pagefile):
    pages = _fill_pages(pagefile, 3)
    pool = BufferPool(pagefile, capacity=2, readahead=0)
    pool.fetch(pages[0], pin=True)
    pool.fetch(pages[1], pin=True)
    with pytest.raises(BufferPoolError):
        pool.fetch(pages[2])
    # unpinning one frame unblocks the pool
    pool.unpin(pages[0])
    pool.fetch(pages[2])
    assert pages[2] in pool


def test_pool_pinned_pages_survive_pressure(pagefile):
    pages = _fill_pages(pagefile, 6)
    pool = BufferPool(pagefile, capacity=2, readahead=0)
    pool.fetch(pages[0], pin=True)
    for page_no in pages[1:]:
        pool.fetch(page_no)
    assert pages[0] in pool
    pool.unpin(pages[0])


def test_lru_victim_is_least_recently_used(pagefile):
    one, two, three, four, five = _fill_pages(pagefile, 5)
    pool = BufferPool(pagefile, capacity=3, readahead=0)
    for page_no in (one, two, three):
        pool.fetch(page_no)
    pool.fetch(one)               # order now two, three, one
    pool.fetch(four)
    assert two not in pool and all(p in pool for p in (one, three, four))
    pool.fetch(five)
    assert three not in pool and all(p in pool for p in (one, four, five))


def test_lru_skips_unevictable(pagefile):
    one, two, three, four = _fill_pages(pagefile, 4)
    pool = BufferPool(pagefile, capacity=2, readahead=0)
    pool.fetch(one, pin=True)     # least recent, but pinned
    pool.fetch(two)
    pool.fetch(three)             # the victim is two, not one
    assert one in pool and two not in pool and three in pool
    pool.fetch(two, pin=True)
    with pytest.raises(BufferPoolError):
        pool.fetch(four)          # nothing may go


def test_lru_suffers_scan_pollution(pagefile):
    """Strict LRU loses a re-referenced hot set to a one-pass sweep."""
    hot = _fill_pages(pagefile, 2)
    cold = _fill_pages(pagefile, 20)
    pool = BufferPool(pagefile, capacity=4, readahead=0)
    for page_no in hot:
        pool.fetch(page_no)
        pool.fetch(page_no)
    for page_no in cold:
        pool.fetch(page_no)
    misses_before = pool.stats.misses
    for page_no in hot:
        pool.fetch(page_no)
    assert pool.stats.misses == misses_before + len(hot)  # hot set gone


def test_first_read_of_a_prefetched_page_is_not_a_re_reference(pagefile):
    """A prefetched page keeps its admission place on its first demand
    read; only a second read moves it to the recent end."""
    demand, early, late, extra = _fill_pages(pagefile, 4)
    pool = BufferPool(pagefile, capacity=3, readahead=0)
    pool.fetch(demand)
    pool.prefetch([early, late])  # order: demand, early, late
    pool.fetch(early)             # admission touch: order unchanged
    pool.fetch(demand)            # re-reference: early, late, demand
    pool.fetch(extra)
    assert early not in pool and late in pool and demand in pool


# -- invalidate contract (regression) ------------------------------------------

def test_invalidate_keeps_pinned_frames(pagefile):
    """invalidate() must never drop a pinned frame: the pin is a live
    reference, and dropping it silently corrupts pin accounting (a later
    unpin of the re-read frame would raise)."""
    pool = BufferPool(pagefile, capacity=4)
    pinned = pool.new_page()
    plain = pool.new_page()
    pool.fetch(pinned, pin=True)
    dropped = pool.invalidate()
    assert dropped == 1                 # only the unpinned frame went
    assert pinned in pool
    assert plain not in pool
    assert pool.pinned_pages() == [pinned]
    pool.unpin(pinned)                  # the seed bug: this used to raise
    assert pool.invalidate() == 1       # now unpinned, it may go


def test_unpin_survives_invalidate_under_rw_traffic(pagefile):
    pool = BufferPool(pagefile, capacity=4)
    page_no = pool.new_page()
    pool.fetch(page_no, pin=True).insert(b"kept")
    pool.invalidate()
    assert pool.fetch(page_no).records() == [b"kept"]  # same frame, a hit
    pool.unpin(page_no)


# -- new_page / eviction ordering (regression) ---------------------------------

def test_new_page_contents_survive_eviction_pressure(pagefile):
    """Allocate, write, evict under pressure, re-fetch: contents must
    survive — the dirty new frame is written back before its zeroed
    on-disk image (from allocate_page) could ever be re-read."""
    pool = BufferPool(pagefile, capacity=2, readahead=0)
    fresh = pool.new_page()
    pool.fetch(fresh).insert(b"born dirty")
    # Force fresh out through pure pressure, no explicit flush anywhere.
    for _ in range(4):
        pool.new_page()
    assert fresh not in pool
    assert pool.fetch(fresh).records() == [b"born dirty"]


def test_new_page_evicted_untouched_reads_back_as_valid_empty_page(pagefile):
    pool = BufferPool(pagefile, capacity=2, readahead=0)
    fresh = pool.new_page()          # never written to
    for _ in range(4):
        pool.new_page()
    page = pool.fetch(fresh)         # re-read from disk
    assert page.records() == []
    page.insert(b"usable")           # a well-formed empty page accepts inserts
    assert page.records() == [b"usable"]


def test_zeroed_on_disk_page_is_a_valid_empty_page(pagefile):
    """The raw image allocate_page writes (all zeroes) must decode as an
    *empty* page, not one whose first insert lands at offset 0 (the
    tombstone marker) — the crash-between-allocate-and-writeback case."""
    page_no = pagefile.allocate_page()
    pool = BufferPool(pagefile, capacity=2)
    page = pool.fetch(page_no)       # miss: decodes the zeroed image
    slot = page.insert(b"first record")
    assert page.read(slot) == b"first record"
    assert page.records() == [b"first record"]


# -- prefetch ------------------------------------------------------------------

def test_prefetch_loads_pages_without_counting_misses(pagefile):
    pool = BufferPool(pagefile, capacity=8)
    pages = [pool.new_page() for _ in range(4)]
    pool.flush_all()
    pool.invalidate()
    loaded = pool.prefetch(pages)
    assert loaded == 4
    assert pool.stats.prefetches == 4
    misses_before = pool.stats.misses
    for page_no in pages:
        pool.fetch(page_no)
    assert pool.stats.misses == misses_before   # all hits
    assert pool.stats.hits >= 4


def test_prefetch_skips_cached_and_out_of_range_pages(pagefile):
    pool = BufferPool(pagefile, capacity=4)
    page_no = pool.new_page()
    assert pool.prefetch([page_no, 999, 0]) == 0
    assert pool.stats.prefetches == 0


def test_prefetch_stops_when_all_frames_pinned(pagefile):
    pool = BufferPool(pagefile, capacity=2)
    pages = [pool.new_page() for _ in range(2)]
    extra = pagefile.allocate_page()
    for page_no in pages:
        pool.fetch(page_no, pin=True)
    assert pool.prefetch([extra]) == 0          # no room, no exception
    for page_no in pages:
        pool.unpin(page_no)


def test_prefetch_batch_capped_at_capacity(pagefile):
    pool = BufferPool(pagefile, capacity=4)
    pages = [pagefile.allocate_page() for _ in range(10)]
    assert pool.prefetch(pages) == 4


def test_sequential_misses_trigger_readahead(pagefile):
    pool = BufferPool(pagefile, capacity=8, readahead=4)
    pages = [pagefile.allocate_page() for _ in range(8)]
    pool.fetch(pages[0])
    assert pool.stats.prefetches == 0           # one miss is not a run
    pool.fetch(pages[1])                        # consecutive: read ahead
    assert pool.stats.prefetches == 4
    hits_before = pool.stats.hits
    pool.fetch(pages[2])
    assert pool.stats.hits == hits_before + 1   # served from read-ahead


def test_readahead_zero_disables_sequential_prefetch(pagefile):
    pool = BufferPool(pagefile, capacity=8, readahead=0)
    pages = [pagefile.allocate_page() for _ in range(4)]
    for page_no in pages:
        pool.fetch(page_no)
    assert pool.stats.prefetches == 0


# -- instrumentation -----------------------------------------------------------

def test_fetch_latency_histogram_observes_every_fetch(pagefile):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    pool = BufferPool(pagefile, capacity=4, metrics=registry)
    page_no = pool.new_page()
    pool.fetch(page_no)
    pool.fetch(page_no)
    fetches = registry.histogram("bufferpool.fetch_seconds")
    assert fetches.count == 2
    assert fetches.max > 0


def test_pool_feeds_process_registry(pagefile):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    pool = BufferPool(pagefile, capacity=4, metrics=registry)
    page_no = pool.new_page()
    pool.fetch(page_no)
    snap = registry.snapshot()
    assert snap["bufferpool.hits"] == 1
    assert snap["bufferpool.fetch_seconds"]["count"] == 1
