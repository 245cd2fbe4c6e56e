"""The runtime's one deadline heap, fired by the event loop.

Time is a device the loop looks at, not a thread.  Every timed edge of a
shard — ``sys_sleep``, mesh call timeouts and write watchdogs, pool
lease/connect timeouts, the WAL's flush deadline, keepalive and hint-pump
ticks — is an entry in this heap, and the owning runtime fires it with
:meth:`TimerWheel.fire_due` and :meth:`TimerWheel.next_deadline`.
The one loop turn (:meth:`repro.runtime.loop.Runtime.run`, on both
kernels) does so once per turn — step the ready threads until none is
left, fire what is due, ``poll`` until the next deadline — so a deadline
armed by any thread bounds the very next ``poll``, and no thread services
the heap.  A deadline of "now" (``schedule(0, action)``) therefore means
*once every ready thread has run, before the loop looks at its devices*:
the mesh arms a connection's flush that way, and the action writes what
the whole turn queued.

* ``schedule(delay, action)`` resumes with a :class:`TimerHandle`: a heap
  push on the runtime's clock, zero trace nodes.  A plain ``action`` runs
  on the loop; one that returns an :class:`~repro.core.monad.M` gets a
  thread of its own (``timer-action``), so it may block and delays no
  other timer.  Between ``handle.fired = True`` and that thread's first
  step other threads may run: a caller that reads ``handle.fired`` to
  learn whether its watchdog won must treat "fired" as "lost" even while
  the action's effect (a closed descriptor) is not visible yet.
* ``handle.cancel()`` is plain code, and a cancelled timer costs nothing
  later: its action (and the reply box or body it pins) is dropped at
  once, ``next_deadline`` skips dead entries, and once they outnumber
  live ones the heap is rebuilt without them (asyncio's rule), so under
  schedule-then-cancel it holds O(live), not ``rate x timeout``, entries.
* An action that raises, plain or monadic, is contained and counted in
  ``action_errors``; later timers still fire.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from ..core.do_notation import do
from ..core.monad import M

__all__ = ["TimerWheel", "TimerHandle"]


class TimerHandle:
    """One heap entry: cancellable, observable."""

    __slots__ = ("deadline", "action", "cancelled", "fired", "_wheel")

    def __init__(self, deadline: float, action: Callable[[], Any],
                 wheel: "TimerWheel") -> None:
        self.deadline = deadline
        self.action: Callable[[], Any] | None = action
        self.cancelled = False
        #: Set just before the action runs (watchdog callers race-check it).
        self.fired = False
        self._wheel = wheel

    def cancel(self) -> None:
        """Disarm the timer (plain code): the action is dropped now, the
        heap entry later.  After fire, or twice, it does nothing."""
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        self.action = None
        self._wheel._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("fired" if self.fired
                 else "cancelled" if self.cancelled else "armed")
        return f"<TimerHandle {state} deadline={self.deadline:.3f}>"


#: Heaps smaller than this are never rebuilt: popping a few dead entries
#: as they surface is cheaper than a rebuild per cancel (asyncio's floor).
_COMPACT_MIN_ENTRIES = 100


class TimerWheel:
    """One deadline heap; the owning runtime's loop fires it.  ``now`` is
    the runtime's clock, and ``spawn(comp, name=)`` starts the thread a
    monadic action runs on."""

    def __init__(self, now: Callable[[], float],
                 spawn: Callable[..., Any]) -> None:
        self._now = now
        self._spawn = spawn
        self._heap: list[tuple[float, int, TimerHandle]] = []
        #: Cancelled entries still in the heap (the rebuild trigger).
        self._dead = 0
        self._seq = itertools.count()
        #: ``scheduled``: ``schedule()`` calls; ``fired``: entries run,
        #: sleeps too; ``wakeups``: loop turns that found an entry due.
        self.scheduled = 0
        self.fired = 0
        self.cancelled = 0
        self.wakeups = 0
        self.action_errors = 0

    @property
    def armed(self) -> int:
        """Heap entries: timers, sleeps, dead ones not yet dropped."""
        return len(self._heap)

    def stats(self) -> dict:
        return {
            "scheduled": self.scheduled,
            "fired": self.fired,
            "cancelled": self.cancelled,
            "wakeups": self.wakeups,
            "action_errors": self.action_errors,
            "armed": self.armed,
        }

    def schedule(self, delay: float, action: Callable[[], Any]) -> M:
        """Arm ``action`` to run ``delay`` seconds from now; resumes with
        a :class:`TimerHandle`.  ``action()`` returns a plain value
        (ignored) or an ``M``, which runs on its own thread."""
        def run(cont):
            self.scheduled += 1
            return cont(self._push(delay, action))
        return M(run)

    def sleep(self, delay: float, resume: Callable[[], Any]) -> None:
        """The ``sys_sleep`` device: ``resume()`` wakes the parked thread."""
        self._push(delay, resume)

    def _push(self, delay: float, action: Callable[[], Any]) -> TimerHandle:
        handle = TimerHandle(self._now() + delay, action, self)
        heapq.heappush(self._heap, (handle.deadline, next(self._seq), handle))
        return handle

    def _note_cancel(self) -> None:
        # Each entry is counted once (cancel is idempotent).  Once dead
        # entries outnumber live ones, rebuild: amortized O(1) per cancel.
        self.cancelled += 1
        self._dead += 1
        heap = self._heap
        if len(heap) < _COMPACT_MIN_ENTRIES or self._dead * 2 <= len(heap):
            return
        kept = [item for item in heap if not item[2].cancelled]
        self._dead -= len(heap) - len(kept)
        heap[:] = kept
        heapq.heapify(heap)

    def next_deadline(self) -> float | None:
        """The earliest live deadline (``None``: nothing armed)."""
        heap = self._heap
        while heap:
            if not heap[0][2].cancelled:
                return heap[0][0]
            heapq.heappop(heap)
            self._dead -= 1
        return None

    def fire_due(self) -> bool:
        """Pop every entry whose deadline has passed, then run them (an
        action that re-arms for "now" waits a turn); whether any was due."""
        now, heap, due = self._now(), self._heap, []
        while self.next_deadline() is not None and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[2])
        if not due:
            return False
        self.wakeups += 1
        for handle in due:
            if handle.cancelled:  # by an action that ran earlier this turn
                self._dead -= 1
                continue
            handle.fired = True
            self.fired += 1
            try:
                result = handle.action()
            except Exception:
                self.action_errors += 1  # contained: later timers fire
                continue
            if isinstance(result, M):
                self._spawn(self._contained(result), name="timer-action")
        return True

    @do
    def _contained(self, comp):
        try:
            yield comp
        except Exception:
            self.action_errors += 1
