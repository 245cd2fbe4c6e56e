"""Asynchronous disk I/O: submission and completion queues.

Models Linux AIO as the paper uses it (§4.5): requests proceed in the
background (the disk model schedules completions on the virtual clock) and
land in a completion queue harvested by a dedicated event loop
(``worker_aio``).  Because completions come from the shared
:class:`~repro.simos.disk.DiskModel`, AIO automatically benefits from the
kernel disk-head scheduling — the effect Figure 17 measures.
"""

from __future__ import annotations

from typing import Any

from .filesys import SimFile

__all__ = ["AioContext"]


class AioContext:
    """An AIO submission context with a harvestable completion queue."""

    def __init__(self) -> None:
        #: Completed (token, data) pairs awaiting harvest.
        self._completions: list[tuple[Any, Any]] = []
        self.submitted = 0
        self.completed = 0
        self.in_flight = 0

    def submit_read(
        self, file: SimFile, offset: int, nbytes: int, token: Any
    ) -> None:
        """Queue an ``O_DIRECT`` read; the result appears in the
        completion queue."""
        self.submitted += 1
        self.in_flight += 1

        def on_data(data: bytes) -> None:
            self.in_flight -= 1
            self.completed += 1
            self._completions.append((token, data))

        file.pread_direct(offset, nbytes, on_data)

    def harvest(self) -> list[tuple[Any, Any]]:
        """Collect finished requests (like ``io_getevents``)."""
        batch, self._completions = self._completions, []
        return batch
