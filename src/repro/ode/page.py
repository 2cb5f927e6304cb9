"""Slotted pages.

The object store keeps records in fixed-size slotted pages, the classic
database layout: a small header, a slot directory growing down from the end,
and record payloads growing up from the header.  Records are addressed by
(page number, slot), move within a page under compaction without changing
their slot, and leave a tombstone when deleted.

Layout of a 4096-byte page::

    0..2   slot_count   (u16)  number of slot entries, live or dead
    2..4   free_start   (u16)  offset of first free payload byte
    4..8   reserved
    ...    payloads
    end    slot directory: slot i at PAGE_SIZE - 4*(i+1), (offset u16, len u16)

A slot with offset == 0 is a tombstone (payloads can never start at 0).
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.errors import PageError, PageFullError

PAGE_SIZE = 4096
_HEADER_SIZE = 8
_SLOT_SIZE = 4
_HEADER = struct.Struct(">HHI")
_SLOT = struct.Struct(">HH")
#: More slots than could ever fit means the header bytes are corrupt.
_MAX_SLOTS = (PAGE_SIZE - _HEADER_SIZE) // _SLOT_SIZE


class Page:
    """One mutable slotted page."""

    def __init__(self, data: Optional[bytes] = None):
        if data is None:
            self._buf = bytearray(PAGE_SIZE)
            self._set_header(0, _HEADER_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise PageError(f"page must be {PAGE_SIZE} bytes, got {len(data)}")
            self._buf = bytearray(data)
            # An all-zero page (fresh from PageFile.allocate_page, before
            # any writeback) is a valid *empty* page, but its free_start
            # of 0 would place the first payload at offset 0 — which the
            # slot directory cannot address (offset 0 is the tombstone
            # marker).  Normalise so inserts land past the header.
            count, free_start = self._header()
            if count == 0 and free_start < _HEADER_SIZE:
                self._set_header(0, _HEADER_SIZE)
        self.dirty = False

    # -- header --------------------------------------------------------------

    def _header(self) -> tuple:
        count, free_start, _reserved = _HEADER.unpack_from(self._buf, 0)
        return count, free_start

    def _set_header(self, count: int, free_start: int) -> None:
        _HEADER.pack_into(self._buf, 0, count, free_start, 0)

    @property
    def slot_count(self) -> int:
        return self._header()[0]

    # -- slot directory ---------------------------------------------------------

    def _slot_pos(self, slot: int) -> int:
        return PAGE_SIZE - _SLOT_SIZE * (slot + 1)

    def _read_slot(self, slot: int) -> tuple:
        count = self.slot_count
        if count > _MAX_SLOTS:
            raise PageError(f"corrupt page header: {count} slots")
        if not 0 <= slot < count:
            raise PageError(f"slot {slot} out of range (page has {count} slots)")
        return _SLOT.unpack_from(self._buf, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._buf, self._slot_pos(slot), offset, length)

    # -- space accounting --------------------------------------------------------

    def free_space(self) -> int:
        """Bytes available for a new record (payload + one new slot entry).

        Only the contiguous gap between the payloads and the slot
        directory counts: the payload of a deleted or overwritten record
        is dead space that :meth:`insert` reclaims by compaction but
        this figure never reports.  The store places records by this
        figure, so an update-heavy workload grows the file (2 000
        same-size updates of 50 objects of 191 bytes: 3 → 103 data
        pages, 98 % dead) until ``vacuum``.  Counting dead bytes kept
        that file at 3 pages but made odebench's ``write-watch``
        ``op_ms_p50`` 12 % worse (compaction moves onto the commit
        path), so it is left as stated.
        """
        count, free_start = self._header()
        directory_start = PAGE_SIZE - _SLOT_SIZE * count
        contiguous = directory_start - free_start
        return max(0, contiguous - _SLOT_SIZE)

    def fits(self, length: int) -> bool:
        return length <= self.free_space()

    def is_empty(self) -> bool:
        """True when the page holds no live records."""
        return all(self._read_slot(s)[0] == 0 for s in range(self.slot_count))

    # -- record operations ----------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Store *record*, returning its slot number."""
        if not record:
            raise PageError("cannot insert an empty record")
        count, free_start = self._header()
        # Reuse a tombstone slot if one exists (keeps the directory small).
        slot = None
        for candidate in range(count):
            if self._read_slot(candidate)[0] == 0:
                slot = candidate
                break
        needs_new_slot = slot is None
        directory_start = PAGE_SIZE - _SLOT_SIZE * count
        needed = len(record) + (_SLOT_SIZE if needs_new_slot else 0)
        if directory_start - free_start < needed:
            self._compact()
            count, free_start = self._header()
            directory_start = PAGE_SIZE - _SLOT_SIZE * count
            if directory_start - free_start < needed:
                raise PageFullError(
                    f"record of {len(record)} bytes does not fit "
                    f"({directory_start - free_start} free)"
                )
        offset = free_start
        self._buf[offset:offset + len(record)] = record
        if needs_new_slot:
            slot = count
            count += 1
        self._set_header(count, offset + len(record))
        self._write_slot(slot, offset, len(record))
        self.dirty = True
        return slot

    def read(self, slot: int) -> bytes:
        offset, length = self._read_slot(slot)
        if offset == 0:
            raise PageError(f"slot {slot} is deleted")
        return bytes(self._buf[offset:offset + length])

    def delete(self, slot: int) -> None:
        offset, _length = self._read_slot(slot)
        if offset == 0:
            raise PageError(f"slot {slot} is already deleted")
        self._write_slot(slot, 0, 0)
        self.dirty = True

    def update(self, slot: int, record: bytes) -> None:
        """Replace the record in *slot*, in place when it fits."""
        offset, length = self._read_slot(slot)
        if offset == 0:
            raise PageError(f"slot {slot} is deleted")
        if len(record) <= length:
            self._buf[offset:offset + len(record)] = record
            self._write_slot(slot, offset, len(record))
            self.dirty = True
            return
        # Grow: tombstone the slot, re-insert, then move back into the
        # original slot so the record's address is stable.  A failed insert
        # may have compacted the page (moving payloads), so on failure the
        # *old* record is re-inserted rather than the stale pointer restored.
        old_record = self.read(slot)
        self._write_slot(slot, 0, 0)
        try:
            temp_slot = self.insert(record)
        except PageFullError:
            temp_slot = self.insert(old_record)
            self._relocate(slot, temp_slot)
            raise
        self._relocate(slot, temp_slot)

    def _relocate(self, slot: int, temp_slot: int) -> None:
        """Move the record in *temp_slot* under the stable *slot* number."""
        new_offset, new_length = self._read_slot(temp_slot)
        if temp_slot != slot:
            self._write_slot(slot, new_offset, new_length)
            self._write_slot(temp_slot, 0, 0)
        self.dirty = True

    def live_slots(self) -> List[int]:
        return [s for s in range(self.slot_count) if self._read_slot(s)[0] != 0]

    def records(self) -> List[bytes]:
        return [self.read(s) for s in self.live_slots()]

    def _compact(self) -> None:
        """Squeeze out dead payload space, preserving slot numbers."""
        live = [(s, self.read(s)) for s in self.live_slots()]
        count = self.slot_count
        self._buf[_HEADER_SIZE:PAGE_SIZE - _SLOT_SIZE * count] = bytes(
            PAGE_SIZE - _SLOT_SIZE * count - _HEADER_SIZE
        )
        offset = _HEADER_SIZE
        for slot, record in live:
            self._buf[offset:offset + len(record)] = record
            self._write_slot(slot, offset, len(record))
            offset += len(record)
        self._set_header(count, offset)
        self.dirty = True

    def to_bytes(self) -> bytes:
        return bytes(self._buf)


#: Largest record a fresh page can hold.
MAX_RECORD_SIZE = PAGE_SIZE - _HEADER_SIZE - _SLOT_SIZE
