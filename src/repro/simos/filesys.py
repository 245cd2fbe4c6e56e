"""A simulated filesystem over the disk model.

Files occupy contiguous extents on the simulated disk (a simplification:
the paper's workloads — one 1GB test file, or 128K small files — do not
exercise fragmentation).  Content is synthesized deterministically from the
file name and offset, so reads return real bytes without storing gigabytes.

Two read paths exist, mirroring the paper's setup:

* :meth:`SimFile.pread_direct` — O_DIRECT-style: always hits the disk
  (what the paper's AIO benchmark and web server cache-miss path use);
* :meth:`SimFile.pread_buffered` — through the kernel page cache (what a
  conventional server like the Apache baseline uses).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from .clock import VirtualClock
from .disk import DiskModel
from .errors import BadFileError, SimOsError
from .params import SimParams

__all__ = ["SimFileSystem", "SimFile", "PageCache"]


class PageCache:
    """An LRU page cache with byte-capacity accounting."""

    def __init__(self, capacity_bytes: int, page_bytes: int) -> None:
        self.capacity_pages = max(0, capacity_bytes // page_bytes)
        self.page_bytes = page_bytes
        self._pages: OrderedDict[tuple[str, int], bool] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, name: str, page_index: int) -> bool:
        """True on hit (page promoted to most-recent)."""
        key = (name, page_index)
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, name: str, page_index: int) -> None:
        """Add a page, evicting the least-recently-used beyond capacity."""
        if self.capacity_pages == 0:
            return
        key = (name, page_index)
        self._pages[key] = True
        self._pages.move_to_end(key)
        while len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)

    def flush(self) -> None:
        """Drop every cached page (the paper flushes before each trial)."""
        self._pages.clear()


class SimFile:
    """An open file: a named, contiguous extent on the disk."""

    __slots__ = ("fs", "name", "extent_start", "size", "_pattern", "closed")

    def __init__(
        self, fs: "SimFileSystem", name: str, extent_start: int, size: int
    ) -> None:
        self.fs = fs
        self.name = name
        self.extent_start = extent_start
        self.size = size
        # A 256-byte deterministic pattern seeded by the name; file content
        # at offset o is pattern[(o + k) % 256].
        seed = sum(name.encode()) % 251 + 1
        self._pattern = bytes((seed * (i + 1)) % 256 for i in range(256))
        self.closed = False

    def content_at(self, offset: int, nbytes: int) -> bytes:
        """The deterministic bytes stored at ``offset``."""
        if nbytes <= 0:
            return b""
        start = offset % 256
        repeated = self._pattern * ((nbytes + 256) // 256 + 1)
        return repeated[start:start + nbytes]

    def _clamp(self, offset: int, nbytes: int) -> int:
        if offset >= self.size:
            return 0
        return min(nbytes, self.size - offset)

    def pread_direct(
        self, offset: int, nbytes: int, callback: Callable[[bytes], None]
    ) -> None:
        """O_DIRECT read: always performs disk I/O; completion is called
        with the data (empty at EOF)."""
        if self.closed:
            raise BadFileError(f"read on closed file {self.name!r}")
        take = self._clamp(offset, nbytes)
        if take == 0:
            # EOF: completes on the next clock event, not synchronously.
            self.fs.clock.schedule(0.0, lambda: callback(b""))
            return
        data = self.content_at(offset, take)
        self.fs.disk.submit(self.extent_start + offset, take,
                            lambda: callback(data))

    def pread_buffered(
        self, offset: int, nbytes: int, callback: Callable[[bytes], None]
    ) -> None:
        """Buffered read through the page cache: whole-page hits complete
        after a zero-delay event; any missing page goes to the disk."""
        if self.closed:
            raise BadFileError(f"read on closed file {self.name!r}")
        take = self._clamp(offset, nbytes)
        if take == 0:
            self.fs.clock.schedule(0.0, lambda: callback(b""))
            return
        cache = self.fs.page_cache
        page_bytes = cache.page_bytes
        first_page = offset // page_bytes
        last_page = (offset + take - 1) // page_bytes
        missing = [
            page
            for page in range(first_page, last_page + 1)
            if not cache.lookup(self.name, page)
        ]
        data = self.content_at(offset, take)
        if not missing:
            self.fs.clock.schedule(0.0, lambda: callback(data))
            return
        # One disk transfer covering the missing span (readahead merges
        # adjacent pages, as the kernel would).
        span_start = missing[0] * page_bytes
        span_end = min((missing[-1] + 1) * page_bytes, self.size)

        def on_disk_done() -> None:
            for page in missing:
                cache.insert(self.name, page)
            callback(data)

        self.fs.disk.submit(
            self.extent_start + span_start, span_end - span_start, on_disk_done
        )

    def close(self) -> None:
        """Mark the file closed; later reads raise :class:`BadFileError`."""
        self.closed = True


class SimFileSystem:
    """Allocates files on a disk and owns the shared page cache."""

    def __init__(
        self, clock: VirtualClock, disk: DiskModel, params: SimParams
    ) -> None:
        self.clock = clock
        self.disk = disk
        self.params = params
        self.page_cache = PageCache(params.page_cache_bytes, params.page_bytes)
        self._files: dict[str, tuple[int, int]] = {}
        # Leave headroom at the start of the disk (boot/OS area), matching
        # a file region somewhere inside the span.
        self._next_extent = params.disk_span_bytes // 16

    def create_file(self, name: str, size: int) -> None:
        """Allocate ``name`` as a contiguous ``size``-byte extent."""
        if size < 0:
            raise ValueError("size must be >= 0")
        if name in self._files:
            raise SimOsError(f"file exists: {name!r}")
        end = self._next_extent + size
        if end > self.params.disk_span_bytes:
            raise SimOsError("disk full")
        self._files[name] = (self._next_extent, size)
        self._next_extent = end

    def exists(self, name: str) -> bool:
        """Whether ``name`` was created."""
        return name in self._files

    def file_size(self, name: str) -> int:
        """Size of ``name`` in bytes; raises if absent."""
        if name not in self._files:
            raise BadFileError(f"no such file: {name!r}")
        return self._files[name][1]

    def open(self, name: str) -> SimFile:
        """Open an existing file."""
        if name not in self._files:
            raise BadFileError(f"no such file: {name!r}")
        start, size = self._files[name]
        return SimFile(self, name, start, size)

    def flush_page_cache(self) -> None:
        """Drop the kernel page cache (paper: 'we flushed the Linux kernel
        disk cache entirely' before each trial)."""
        self.page_cache.flush()
