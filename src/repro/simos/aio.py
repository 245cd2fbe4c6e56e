"""Asynchronous disk I/O: submission and completion queues.

Models Linux AIO as the paper uses it (§4.5): requests proceed in the
background (the disk model schedules completions on the virtual clock) and
land in a completion queue harvested by a dedicated event loop
(``worker_aio``).  Because completions come from the shared
:class:`~repro.simos.disk.DiskModel`, AIO automatically benefits from the
kernel disk-head scheduling — the effect Figure 17 measures.
"""

from __future__ import annotations

from typing import Any, Callable

from .filesys import SimFile

__all__ = ["AioContext"]


class AioContext:
    """An AIO submission context with a harvestable completion queue."""

    def __init__(self, on_complete: Callable[[], None] | None = None) -> None:
        #: Completed (token, data) pairs awaiting harvest.
        self._completions: list[tuple[Any, Any]] = []
        #: Called on transition from no-completions to some.
        self.on_complete = on_complete
        self.submitted = 0
        self.completed = 0
        self.in_flight = 0

    def submit_read(
        self, file: SimFile, offset: int, nbytes: int, token: Any,
        direct: bool = True,
    ) -> None:
        """Queue an async read; result appears in the completion queue."""
        self.submitted += 1
        self.in_flight += 1

        def on_data(data: bytes) -> None:
            self._finish(token, data)

        if direct:
            file.pread_direct(offset, nbytes, on_data)
        else:
            file.pread_buffered(offset, nbytes, on_data)

    def _finish(self, token: Any, payload: Any) -> None:
        self.in_flight -= 1
        self.completed += 1
        was_empty = not self._completions
        self._completions.append((token, payload))
        if was_empty and self.on_complete is not None:
            self.on_complete()

    def harvest(self, max_events: int | None = None) -> list[tuple[Any, Any]]:
        """Collect finished requests (like ``io_getevents``)."""
        if max_events is None or max_events >= len(self._completions):
            batch, self._completions = self._completions, []
        else:
            batch = self._completions[:max_events]
            del self._completions[:max_events]
        return batch
