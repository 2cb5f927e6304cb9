"""Placement: where each object's bytes live in the page file.

Persistent objects live in slotted pages reached through the buffer
pool; records larger than a page are split into fragment chains.
Because every record is self-describing (it embeds its OID), the OID
table is rebuilt by scanning the pages at open; there is no separately
persisted index to corrupt.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from repro.errors import StorageError
from repro.ode.bufferpool import BufferPool
from repro.ode.codec import decode_object, read_varint, write_varint
from repro.ode.oid import Oid
from repro.ode.page import MAX_RECORD_SIZE, PAGE_SIZE
from repro.ode.pagefile import PageFile

_FRAGMENT_MAGIC = 0xB1
# Room left in a fragment for its own header (magic + varints + oid text).
_FRAGMENT_HEADER_BUDGET = 64
_FRAGMENT_CHUNK = MAX_RECORD_SIZE - _FRAGMENT_HEADER_BUDGET

Location = List[Tuple[int, int]]  # ordered (page_no, slot) fragments


def _encode_fragment(oid: Oid, index: int, total: int, chunk: bytes) -> bytes:
    oid_bytes = str(oid).encode("utf-8")
    out = bytearray([_FRAGMENT_MAGIC])
    out += write_varint(index)
    out += write_varint(total)
    out += write_varint(len(oid_bytes))
    out += oid_bytes
    out += chunk
    return bytes(out)


def _decode_fragment(record: bytes) -> Tuple[Oid, int, int, bytes]:
    index, offset = read_varint(record, 1)
    total, offset = read_varint(record, offset)
    oid_len, offset = read_varint(record, offset)
    oid = Oid.parse(record[offset:offset + oid_len].decode("utf-8"))
    chunk = record[offset + oid_len:]
    return oid, index, total, chunk


class Placement:
    """The page file, its buffer pool and the OID → location table
    (not thread-safe: the store calls it under its own lock)."""

    def __init__(self, path: Path, pool_capacity: int,
                 fault_gate: Optional[Callable[..., Any]] = None):
        self._path = path
        self._fault_gate = fault_gate
        self._capacity = pool_capacity
        self.pagefile = PageFile(path, fault_gate=fault_gate)
        self.pool = BufferPool(self.pagefile, pool_capacity)
        self._table: Dict[Oid, Location] = {}
        self._next_number: Dict[str, int] = {}
        # Next-fit allocator state: index into data_page_numbers() where
        # the last insert landed.  Purely a search-start hint — the scan
        # wraps, so any page with space is still found.
        self._insert_hint = 0
        # ``Page.free_space()`` of every data page, so that scan reads
        # no page: without it each page a bulk ingest fills costs a
        # fetch of every page before it.
        self._free_space: Dict[int, int] = {}

    # -- the table -------------------------------------------------------------

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._table

    def oids(self) -> List[Oid]:
        """Every placed OID, in no particular order."""
        return list(self._table)

    def allocate(self, database: str, cluster: str) -> Oid:
        """Mint the next OID for a cluster (monotonic within the store)."""
        number = self._next_number.get(cluster, 0)
        self._next_number[cluster] = number + 1
        return Oid(database, cluster, number)

    def _install(self, oid: Oid, location: Location) -> None:
        self._table[oid] = location
        nxt = self._next_number.get(oid.cluster, 0)
        if oid.number >= nxt:
            self._next_number[oid.cluster] = oid.number + 1

    # -- rebuild from the pages ----------------------------------------------------

    def load(self, purge: FrozenSet[str] = frozenset()) -> None:
        """Discard every cached page unflushed and re-derive the table
        from the page file, dropping every record of an OID in *purge*
        (the OIDs the log will redo: a crash mid-apply can leave stale
        and fresh versions live at once).  OID allocation state is kept,
        so already-handed-out OIDs stay unique."""
        self.pool = BufferPool(self.pagefile, self._capacity)
        self._table = {}
        self._free_space = {}
        partial: Dict[Oid, Dict[int, Tuple[int, int]]] = {}
        totals: Dict[Oid, int] = {}
        for page_no in self.pagefile.data_page_numbers():
            page = self.pool.fetch(page_no)
            for slot in page.live_slots():
                record = page.read(slot)
                if not record:
                    continue
                if record[0] == _FRAGMENT_MAGIC:
                    oid, index, total, _chunk = _decode_fragment(record)
                    if str(oid) in purge:
                        page.delete(slot)
                        continue
                    partial.setdefault(oid, {})[index] = (page_no, slot)
                    totals[oid] = total
                else:
                    oid, _class_name, _values = decode_object(record)
                    if str(oid) in purge:
                        page.delete(slot)
                        continue
                    self._install(oid, [(page_no, slot)])
            self._free_space[page_no] = page.free_space()
        for oid, fragments in partial.items():
            total = totals[oid]
            if len(fragments) != total:
                raise StorageError(
                    f"object {oid} has {len(fragments)} of {total} fragments"
                )
            self._install(oid, [fragments[i] for i in range(total)])

    # -- records ---------------------------------------------------------------------

    def _insert_record(self, record: bytes) -> Tuple[int, int]:
        # Next-fit: resume the scan where the last insert landed instead
        # of first-fit from page one.  An append-heavy workload (the
        # group-commit leader applying a batch) touches exactly one page
        # instead of re-scanning every full page per record; the wrap
        # keeps coverage identical — a new page is allocated only when
        # truly no existing page fits.
        pages = self.pagefile.data_page_numbers()
        start = self._insert_hint if self._insert_hint < len(pages) else 0
        for index in itertools.chain(range(start, len(pages)),
                                     range(0, start)):
            page_no = pages[index]
            if len(record) <= self._free_space[page_no]:
                break
        else:
            index, page_no = len(pages), self.pool.new_page()
        self._insert_hint = index
        page = self.pool.fetch(page_no)
        slot = page.insert(record)
        self._free_space[page_no] = page.free_space()
        return page_no, slot

    def put(self, oid: Oid, data: bytes) -> None:
        """Place *data* as the record of *oid*, replacing any old one."""
        self.delete(oid)
        if len(data) <= MAX_RECORD_SIZE:
            location = [self._insert_record(data)]
        else:
            chunks = [
                data[start:start + _FRAGMENT_CHUNK]
                for start in range(0, len(data), _FRAGMENT_CHUNK)
            ]
            location = [
                self._insert_record(_encode_fragment(oid, i, len(chunks), chunk))
                for i, chunk in enumerate(chunks)
            ]
        self._install(oid, location)

    def delete(self, oid: Oid) -> None:
        """Free the record of *oid*, if it has one."""
        location = self._table.pop(oid, None)
        for page_no, slot in location or ():
            page = self.pool.fetch(page_no)
            page.delete(slot)
            self._free_space[page_no] = page.free_space()

    def read(self, oid: Oid) -> Optional[bytes]:
        """The record of *oid*, ``None`` if it has none."""
        location = self._table.get(oid)
        if location is None:
            return None
        if len(location) == 1:
            page_no, slot = location[0]
            record = self.pool.fetch(page_no).read(slot)
            if record and record[0] != _FRAGMENT_MAGIC:
                return record
        parts = []
        for page_no, slot in location:
            record = self.pool.fetch(page_no).read(slot)
            _oid, _index, _total, chunk = _decode_fragment(record)
            parts.append(chunk)
        return b"".join(parts)

    def read_many(self, oids: Sequence[Oid]) -> List[Optional[bytes]]:
        """:meth:`read` of each of *oids*, fetching each page once: the
        single-slot records are grouped by page, a fragmented one is
        read alone."""
        records: List[Optional[bytes]] = [None] * len(oids)
        by_page: Dict[int, List[Tuple[int, int]]] = {}
        for index, oid in enumerate(oids):
            location = self._table.get(oid)
            if location is None:
                continue
            if len(location) == 1:
                page_no, slot = location[0]
                by_page.setdefault(page_no, []).append((index, slot))
            else:
                records[index] = self.read(oid)
        for page_no, slots in by_page.items():
            page = self.pool.fetch(page_no)
            for index, slot in slots:
                record = page.read(slot)
                if record and record[0] != _FRAGMENT_MAGIC:
                    records[index] = record
                else:
                    records[index] = self.read(oids[index])
        return records

    # -- maintenance -------------------------------------------------------------------

    def flush(self) -> None:
        """Write every dirty page back (one crash-atomic batch)."""
        self.pool.flush_all()

    def fragmentation(self) -> float:
        """Fraction of data-page space not holding live payload (0..1)."""
        total = 0
        used = 0
        for page_no in self.pagefile.data_page_numbers():
            page = self.pool.fetch(page_no)
            total += PAGE_SIZE
            used += sum(len(page.read(slot)) for slot in page.live_slots())
        if total == 0:
            return 0.0
        return 1.0 - used / total

    def vacuum(self) -> int:
        """Rewrite the page file densely; returns pages reclaimed.

        Deletes and overwrites leave holes that compaction within a page
        cannot give back to the file.  Every live record is streamed
        into a fresh page file, which is then atomically swapped in; a
        failure before the swap leaves the old file untouched.
        """
        self.flush()
        pages_before = self.pagefile.page_count
        records = [(oid, self.read(oid)) for oid in self._table]

        fresh_path = self._path.with_name(self._path.name + ".vacuum")
        fresh_path.unlink(missing_ok=True)
        old_pagefile = self.pagefile
        self.pagefile = PageFile(fresh_path, fault_gate=self._fault_gate)
        self.load()
        try:
            for oid, data in records:
                self.put(oid, data)
            self.flush()
        except Exception:
            self.pagefile.close()
            fresh_path.unlink(missing_ok=True)
            self.pagefile = old_pagefile
            self.load()
            raise
        self.pagefile.close()
        old_pagefile.close()
        fresh_path.replace(self._path)
        self.pagefile = PageFile(self._path, fault_gate=self._fault_gate)
        self.load()
        return pages_before - self.pagefile.page_count

    def close(self) -> None:
        self.pagefile.close()
