"""The page file: fixed-size pages in one OS file.

Page 0 is a header page (magic, format version, page count); data pages
start at 1.  The file only ever grows; page reuse is handled above this
layer by the store's free-page tracking.

Crash atomicity.  An in-place page overwrite is not atomic: a crash can
leave the page half old, half new, destroying committed records that
were *not* in the write-ahead log any more (the WAL is logical and is
truncated at checkpoint).  :meth:`write_pages_atomic` therefore runs
every write-back through a **double-write journal** (``<path>.journal``):
the new page images are appended to the journal and fsynced *before*
the first in-place write starts, and the journal is emptied only after
the in-place writes are synced.  On open, an intact journal is replayed
over the pages — so a torn page is repaired, and a torn *journal* means
no page write had started, so it is simply discarded.  Opening also
tolerates the file-length artifacts a crash can leave: a partial
trailing page is truncated away and trailing full pages not yet counted
by the header are adopted (both are re-established by WAL replay above
this layer).

Fault injection.  ``fault_gate`` (default ``None``: the hot path pays
one ``is None`` test and nothing else) is consulted before every write
or sync of stable storage, with the contract defined in
:mod:`repro.faultsim.plan`::

    fault_gate(site, data, default)

where ``site`` is one of ``pagefile.journal.write``,
``pagefile.journal.sync``, ``pagefile.write_page``, ``pagefile.sync``
(registered in :mod:`repro.faultsim.sites`), ``data`` is the bytes
about to be written (``None`` for syncs) and ``default`` performs the
real operation — for write sites it also flushes, so a torn write
injected by a gate is on disk when the simulated crash hits.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.errors import StorageError
from repro.ode.page import PAGE_SIZE

_MAGIC = b"ODEPAGES"
_FILE_VERSION = 1
_HEADER = struct.Struct(">8sII")

_JOURNAL_MAGIC = b"ODEJRNL1"
#: One journal entry: page number, CRC-32 of (page number + image).
_JENTRY = struct.Struct(">II")

FaultGate = Callable[[str, Optional[bytes], Callable], object]


class PageFile:
    """Random access to fixed-size pages of one file."""

    def __init__(self, path: Union[str, Path],
                 fault_gate: Optional[FaultGate] = None):
        self.path = Path(path)
        self.journal_path = Path(str(path) + ".journal")
        self._fault_gate = fault_gate
        self._journal = None
        existed = self.path.exists()
        self._fh = open(self.path, "r+b" if existed else "w+b")
        if existed:
            self._recover_journal()
            if os.fstat(self._fh.fileno()).st_size == 0:
                # Creation crashed before the header page was flushed.
                # Nothing can have committed against a file that never
                # made it to disk, so start over (WAL replay above this
                # layer redoes anything the log still holds).
                self.page_count = 1
                self._write_header()
            else:
                self._read_header()
        else:
            self.journal_path.unlink(missing_ok=True)
            self.page_count = 1  # header page
            self._write_header()

    # -- header ---------------------------------------------------------------

    def _read_header(self) -> None:
        self._fh.seek(0)
        raw = self._fh.read(PAGE_SIZE)
        if len(raw) < _HEADER.size:
            raise StorageError(f"{self.path} is not a page file (too short)")
        magic, version, count = _HEADER.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise StorageError(f"{self.path} is not a page file (bad magic)")
        if version != _FILE_VERSION:
            raise StorageError(f"{self.path}: unsupported page file version {version}")
        size = os.fstat(self._fh.fileno()).st_size
        full, partial = divmod(size, PAGE_SIZE)
        if partial:
            # A torn write at the tail of the file: the page was being
            # appended or extended when the process died.  Drop the
            # partial page — if it carried committed data, the journal
            # replay above restored it or the WAL replay will.
            self._fh.truncate(full * PAGE_SIZE)
        if full < count:
            # The header claims pages the file does not have.  A crash
            # cannot produce this (page bytes are written before the
            # header that counts them), so treat it as real damage.
            raise StorageError(
                f"{self.path}: header says {count} pages but file has "
                f"{size} bytes"
            )
        if full > count:
            # Trailing full pages beyond the header count: allocated (or
            # journal-restored) by a commit whose header update never
            # became durable.  Adopt them — they are zeroed or carry
            # journaled images, both of which decode cleanly.
            count = full
            self.page_count = count
            self._write_header()
            self._fh.flush()
        self.page_count = count

    def _write_header(self) -> None:
        header = bytearray(PAGE_SIZE)
        _HEADER.pack_into(header, 0, _MAGIC, _FILE_VERSION, self.page_count)
        self._fh.seek(0)
        self._fh.write(header)

    # -- page access --------------------------------------------------------------

    def _check(self, page_no: int) -> None:
        if not 1 <= page_no < self.page_count:
            raise StorageError(
                f"page {page_no} out of range (file has pages 1..{self.page_count - 1})"
            )

    def read_page(self, page_no: int) -> bytes:
        self._check(page_no)
        self._fh.seek(page_no * PAGE_SIZE)
        data = self._fh.read(PAGE_SIZE)
        if len(data) != PAGE_SIZE:
            # The tail of a sparse region journal replay skipped over.
            data = data + bytes(PAGE_SIZE - len(data))
        return data

    def write_page(self, page_no: int, data: bytes) -> None:
        self._check(page_no)
        if len(data) != PAGE_SIZE:
            raise StorageError(f"page write must be {PAGE_SIZE} bytes, got {len(data)}")
        self._fh.seek(page_no * PAGE_SIZE)
        if self._fault_gate is None:
            self._fh.write(data)
        else:
            self._fault_gate("pagefile.write_page", data, self._write_through)

    def _write_through(self, data: bytes) -> None:
        """Gated write continuation: write *and* flush, so a torn write
        injected by the gate reaches the OS file before the crash."""
        self._fh.write(data)
        self._fh.flush()

    def allocate_page(self) -> int:
        """Append a zeroed page; return its number."""
        page_no = self.page_count
        self._fh.seek(page_no * PAGE_SIZE)
        self._fh.write(bytes(PAGE_SIZE))
        self.page_count += 1
        self._write_header()
        return page_no

    def data_page_numbers(self) -> range:
        return range(1, self.page_count)

    # -- atomic multi-page write-back ---------------------------------------------

    def write_pages_atomic(self, images: Dict[int, bytes]) -> None:
        """Write page images so a crash can never leave a torn page.

        Protocol (the double-write buffer): journal the new images and
        sync the journal; only then overwrite the pages in place; sync;
        empty the journal.  A crash before the journal sync leaves the
        pages untouched; a crash after it is repaired at open by
        replaying the journal.  The journal is emptied *before* the WAL
        checkpoint that follows a flush, so a non-empty journal always
        has its logical operations still in the WAL.  The buffer pool
        hands over every dirty page at once, on a flush and on a dirty
        eviction alike: the two fsyncs are paid per batch, not per page.
        """
        if not images:
            self.sync()
            return
        for page_no, data in images.items():
            self._check(page_no)
            if len(data) != PAGE_SIZE:
                raise StorageError(
                    f"page write must be {PAGE_SIZE} bytes, got {len(data)}")
        entries = sorted(images.items())
        # Written piece by piece, not copied into one blob first (a gate
        # sees them joined).
        parts = [_JOURNAL_MAGIC]
        for page_no, data in entries:
            crc = zlib.crc32(_JENTRY.pack(page_no, 0)[:4] + data)
            parts += (_JENTRY.pack(page_no, crc), data)
        journal = self._open_journal()
        journal.seek(0)
        journal.truncate(0)
        if self._fault_gate is None:
            journal.writelines(parts)
        else:
            self._fault_gate("pagefile.journal.write", b"".join(parts),
                             self._journal_write_through)
        if self._fault_gate is None:
            self._journal_sync()
        else:
            self._fault_gate("pagefile.journal.sync", None, self._journal_sync)
        for page_no, data in entries:
            self.write_page(page_no, data)
        self.sync()
        journal.seek(0)
        journal.truncate(0)
        journal.flush()

    def _open_journal(self):
        if self._journal is None or self._journal.closed:
            self._journal = open(self.journal_path, "w+b")
        return self._journal

    def _journal_write_through(self, blob: bytes) -> None:
        self._journal.write(blob)
        self._journal.flush()

    def _journal_sync(self) -> None:
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def _recover_journal(self) -> None:
        """Replay intact journal entries over the pages, then drop it.

        Entries are validated individually (CRC over page number +
        image); reading stops at the first damaged one.  Replaying a
        *prefix* is safe: journal images are always well-formed whole
        pages whose logical content the WAL still carries.
        """
        try:
            raw = self.journal_path.read_bytes()
        except FileNotFoundError:
            return
        applied = False
        offset = len(_JOURNAL_MAGIC)
        if raw.startswith(_JOURNAL_MAGIC):
            while offset + _JENTRY.size + PAGE_SIZE <= len(raw):
                page_no, crc = _JENTRY.unpack_from(raw, offset)
                image = raw[offset + _JENTRY.size:
                            offset + _JENTRY.size + PAGE_SIZE]
                if zlib.crc32(_JENTRY.pack(page_no, 0)[:4] + image) != crc:
                    break
                if page_no < 1:
                    break
                self._fh.seek(page_no * PAGE_SIZE)
                self._fh.write(image)
                applied = True
                offset += _JENTRY.size + PAGE_SIZE
        if applied:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self.journal_path.unlink(missing_ok=True)

    # -- lifecycle ---------------------------------------------------------------------

    def sync(self) -> None:
        if self._fault_gate is None:
            self._do_sync()
        else:
            self._fault_gate("pagefile.sync", None, self._do_sync)

    def _do_sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()
        if self._journal is not None and not self._journal.closed:
            empty = self._journal.seek(0, os.SEEK_END) == 0
            self._journal.close()
            if empty:
                self.journal_path.unlink(missing_ok=True)

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
