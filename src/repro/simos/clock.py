"""Virtual time: the event calendar driving every simulation.

The clock supports two motions:

* :meth:`VirtualClock.advance` — jump to the next scheduled event and run
  its callback (device completions, timers);
* :meth:`VirtualClock.consume` — burn CPU time in place (the single-core
  machine executing event-loop code).  Calendar events that come due while
  the CPU is busy fire on the next ``advance`` — exactly like interrupt
  handling deferred past a busy stretch on real hardware.

Determinism: ties break by insertion order (a monotone sequence number), so
runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["VirtualClock", "TimerHandle"]


class TimerHandle:
    """A cancellable handle for a scheduled callback."""

    __slots__ = ("when", "cancelled", "callback")

    def __init__(self, when: float, callback: Callable[[], None]) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self.cancelled = True
        self.callback = None  # release references early


class VirtualClock:
    """A discrete-event clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, TimerHandle]] = []
        self._seq = itertools.count()
        #: Total CPU time consumed via :meth:`consume` (utilization stats).
        self.cpu_consumed = 0.0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` ``delay`` seconds from now (>= 0)."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at absolute time ``when``."""
        handle = TimerHandle(when, callback)
        heapq.heappush(self._heap, (when, next(self._seq), handle))
        return handle

    # ------------------------------------------------------------------
    # Motion
    # ------------------------------------------------------------------
    def consume(self, seconds: float) -> None:
        """Advance time by CPU work performed now (single core)."""
        if seconds < 0:
            raise ValueError("cannot consume negative time")
        self.now += seconds
        self.cpu_consumed += seconds

    def advance(self) -> bool:
        """Jump to the next pending event and run it.

        Returns ``False`` when the calendar is empty.  If the next event is
        already due (the CPU ran past it), it fires immediately at the
        current time.
        """
        while self._heap:
            when, _seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            if when > self.now:
                self.now = when
            callback = handle.callback
            handle.callback = None
            callback()
            return True
        return False

    def run_due(self) -> int:
        """Run every event due at or before the current time; return count."""
        fired = 0
        while self._heap:
            when, _seq, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            if when > self.now:
                break
            heapq.heappop(self._heap)
            callback = handle.callback
            handle.callback = None
            callback()
            fired += 1
        return fired

    def next_event_time(self) -> float | None:
        """Time of the earliest pending event, or ``None``."""
        while self._heap:
            when, _seq, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            return when
        return None

    def has_events(self) -> bool:
        """Whether any non-cancelled event is pending."""
        return self.next_event_time() is not None

    def run_until_idle(self) -> int:
        """Drain the calendar; return the number of events fired."""
        fired = 0
        while self.advance():
            fired += 1
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualClock t={self.now:.6f}s pending={len(self._heap)}>"
