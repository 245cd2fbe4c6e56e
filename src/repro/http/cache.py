"""The application-managed file cache.

"To take advantage of Linux AIO, the web server implements its own caching
... a fixed cache size of 100MB" (§5.2).  This is a byte-capacity LRU over
whole-file entries: the server fills it from O_DIRECT AIO reads, bypassing
the kernel page cache entirely (the baseline server uses the kernel cache
instead — that asymmetry is part of the Figure 19 comparison).
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["FileCache"]


class FileCache:
    """LRU cache mapping paths to file contents, bounded in bytes.

    An entry weighs ``len(entry)``: the gateway's response cache stores
    whole responses here, sized by their body.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, path: str) -> bytes | None:
        """Contents on hit (entry promoted), ``None`` on miss."""
        entry = self._entries.get(path)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(path)
        self.hits += 1
        return entry

    def put(self, path: str, content: bytes) -> bool:
        """Insert a file; returns False if it can never fit."""
        size = len(content)
        if size > self.capacity_bytes:
            return False
        if path in self._entries:
            self._used -= len(self._entries.pop(path))
        while self._used + size > self.capacity_bytes and self._entries:
            _old_path, old = self._entries.popitem(last=False)
            self._used -= len(old)
            self.evictions += 1
        self._entries[path] = content
        self._used += size
        return True

    def contains(self, path: str) -> bool:
        """Membership probe: no LRU promotion, no hit/miss accounting."""
        return path in self._entries

    def invalidate(self, path: str) -> None:
        """Drop one entry if present."""
        entry = self._entries.pop(path, None)
        if entry is not None:
            self._used -= len(entry)

    def clear(self) -> None:
        """Drop everything."""
        self._entries.clear()
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FileCache {self._used}/{self.capacity_bytes}B "
            f"entries={len(self._entries)} hit_rate={self.hit_rate:.2f}>"
        )
