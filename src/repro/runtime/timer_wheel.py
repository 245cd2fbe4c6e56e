"""A shared timer wheel: one deadline heap, one sleeper thread.

Before this module, every timed edge in the stack paid for its own
timekeeping thread: each mesh link ran a timeout sweeper while calls were
in flight, frame writes armed a watchdog thread, and the KV hint pump was
one more ``sys_sleep`` loop.  Under load that is thread churn proportional
to call rate; at idle it is still one sleeper per concern.  The wheel
collapses all of them into *one* heap of ``(deadline, handle)`` entries
serviced by *one* monadic sleeper thread — scheduling a timeout is a heap
push (no fork), cancelling one is a flag write, and the sleeper exists
only while at least one timer is armed.

Semantics:

* ``schedule(delay, action)`` is monadic; it resumes with a
  :class:`TimerHandle`.  ``action`` is a zero-argument callable evaluated
  when the deadline passes; if it returns an :class:`~repro.core.monad.M`
  computation the sleeper runs it inline, so actions must be *brief*
  (fill an MVar, close a wedged descriptor, fork the real work).  A slow
  action delays every later timer — fork anything that can block.
* The sleeper sleeps **exactly to the earliest live deadline** — there is
  no periodic tick.  A *near* deadline (within ``tick``, default 50 ms)
  is a plain ``sys_sleep`` straight to it.  A *far* deadline parks the
  sleeper on a wake channel (an MVar) with a one-shot alarm thread armed
  at the deadline; ``schedule()`` of an earlier deadline fills the
  channel so the sleeper re-targets immediately.  Net: an idle-but-armed
  wheel (a 5 s keepalive, a parked lease timeout) costs **zero**
  wakeups until the deadline, where the old design ticked at ``1/tick``
  per second.  A near sleep cannot be interrupted, so a timer scheduled
  *earlier* than the one the sleeper is near-sleeping toward gets a
  one-shot helper thread that sleeps to it and runs the sleeper's own
  due-firing routine: every timer fires at its deadline, and the helper
  is forked only on that collision (``early_spawns``), never in the
  steady schedule-fire-re-park pattern.
* :meth:`TimerHandle.cancel` is plain (non-monadic) code callable from
  anywhere, and a cancelled timer costs nothing later: ``cancel`` drops
  the handle's ``action`` at once (the closure, and whatever reply box
  or request body it pins, is garbage from that moment, not from the
  deadline), and once cancelled entries outnumber live ones the heap is
  rebuilt without them (asyncio's rule), so under the dominant
  schedule-then-cancel pattern (call/lease timeouts) the heap holds
  O(live timers), not ``rate x timeout`` dead ones.  The sleeper skips
  dead deadlines when it picks where to sleep, so it wakes for timers
  that fire, not for ones that were cancelled — with one deliberate
  exception: it never discards its *last* entry early, and a rebuild
  never removes the entry a far-parked sleeper is parked toward.  A
  wheel whose timers are all schedule-then-cancel therefore keeps one
  dead entry and one parked sleeper (one wakeup per timeout period)
  instead of exiting and respawning the sleeper per timer.
  A handle whose action already ran has ``fired`` set — cancel after
  fire (or a second cancel) is a no-op, which callers use to detect
  watchdog races (the mesh checks ``handle.fired`` after a stalled frame
  write to learn the watchdog won).
* Exceptions from actions are contained (counted in ``action_errors``),
  never kill the sleeper.

The wheel is runtime-agnostic: it uses only ``sys_now``/``sys_sleep``/
``sys_fork`` and an MVar, so the same object serves the live runtime
(monotonic clock) and the simulated one (virtual clock).  Both runtimes
hang one on themselves as ``rt.timers``; the cluster passes it to each
shard's mesh node and KV hint pump so a whole shard shares a single
sleeper.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from ..core.do_notation import do
from ..core.monad import M
from ..core.sync import MVar
from ..core.syscalls import sys_fork, sys_now, sys_sleep

__all__ = ["TimerWheel", "TimerHandle"]


class TimerHandle:
    """One scheduled timer: cancellable, observable."""

    __slots__ = ("deadline", "action", "cancelled", "fired", "_wheel")

    def __init__(self, deadline: float, action: Callable[[], Any],
                 wheel: "TimerWheel") -> None:
        self.deadline = deadline
        self.action: Callable[[], Any] | None = action
        self.cancelled = False
        #: Set just before the action runs; ``cancel`` after that is a
        #: no-op (callers race-check this flag, e.g. write watchdogs).
        self.fired = False
        self._wheel = wheel

    def cancel(self) -> None:
        """Disarm the timer (plain code, callable from anywhere).

        Drops the action immediately; the heap entry goes at the next
        rebuild (or when the sleeper pops it).  Cancelling a timer that
        already fired, or twice, does nothing.
        """
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
    """One deadline heap + one on-demand sleeper thread."""

    #: The near/far horizon (seconds): a deadline within one tick is a
    #: direct ``sys_sleep`` (uninterruptible, but short); a farther one
    #: parks on the wake channel with an alarm armed at the deadline.
    TICK = 0.05

    def __init__(self, name: str = "timers", tick: float = TICK) -> None:
        self.name = name
        self.tick = tick
        self._heap: list[tuple[float, int, TimerHandle]] = []
        #: Cancelled entries still in the heap (the rebuild trigger).
        self._dead = 0
        self._seq = itertools.count()
        self._running = False
        #: The earliest-deadline wake channel: ``schedule()`` fills it to
        #: re-target a far-parked sleeper; alarms fill it at deadline.
        self._wake = MVar(name=f"{name}-wake")
        #: Deadline the sleeper is currently parked toward (None while it
        #: is firing actions or not running) — the early-wake predicate.
        self._sleep_target: float | None = None
        #: Deadline of the near sleep in progress (None otherwise).
        self._near_target: float | None = None
        #: Deadline covered by the earliest in-flight alarm thread, so
        #: re-parking on an unchanged target does not fork a duplicate.
        self._alarm_target: float | None = None
        #: Counters: the bench gate asserts sleeper_spawns stays O(1)
        #: while scheduled grows with call rate (no thread per timer),
        #: and wakeups tracks deadlines (no idle ticking).
        self.scheduled = 0
        self.fired = 0
        self.cancelled = 0
        self.sleeper_spawns = 0
        self.alarm_spawns = 0
        self.early_spawns = 0
        self.wakeups = 0
        self.action_errors = 0

    @property
    def armed(self) -> int:
        """Entries still in the heap (cancelled ones not yet dropped
        included — bounded by the rebuild rule, see ``_note_cancel``)."""
        return len(self._heap)

    @property
    def running(self) -> bool:
        """Whether the sleeper thread is currently alive."""
        return self._running

    def stats(self) -> dict:
        return {
            "scheduled": self.scheduled,
            "fired": self.fired,
            "cancelled": self.cancelled,
            "sleeper_spawns": self.sleeper_spawns,
            "alarm_spawns": self.alarm_spawns,
            "early_spawns": self.early_spawns,
            "wakeups": self.wakeups,
            "action_errors": self.action_errors,
            "armed": self.armed,
        }

    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], Any]) -> M:
        """Arm ``action`` to run ``delay`` seconds from now; resumes with
        a :class:`TimerHandle`.

        ``action()`` may return an ``M`` (run by the sleeper) or any
        plain value (ignored).  Keep actions brief — fork slow work.
        """
        return self._schedule(delay, action)

    @do
    def _schedule(self, delay, action):
        now = yield sys_now()
        handle = TimerHandle(now + delay, action, self)
        heapq.heappush(self._heap, (handle.deadline, next(self._seq), handle))
        self.scheduled += 1
        if not self._running:
            self._running = True
            self.sleeper_spawns += 1
            yield sys_fork(self._sleeper(), name=f"{self.name}-sleeper")
        elif (self._sleep_target is not None
              and handle.deadline < self._sleep_target):
            # The sleeper is far-parked past this new deadline: wake it
            # so it re-targets.
            yield self._wake.try_put(True)
        elif (self._near_target is not None
              and handle.deadline < self._near_target):
            # A near sleep cannot be interrupted: a one-shot helper
            # covers this earlier deadline.
            self.early_spawns += 1
            yield sys_fork(self._early(delay), name=f"{self.name}-early")
        return handle

    def _note_cancel(self) -> None:
        # From TimerHandle.cancel (which is idempotent, so each entry is
        # counted once).  Once dead entries outnumber live ones, rebuild
        # the heap without them: amortized O(1) per cancel, and the heap
        # stays O(live) instead of O(rate x timeout).  The entry a
        # far-parked sleeper is parked toward stays: its alarm is already
        # set for that deadline, and keeping it means the sleeper finds a
        # non-empty heap and stays alive across schedule-then-cancel.
        self.cancelled += 1
        self._dead += 1
        heap = self._heap
        if len(heap) < _COMPACT_MIN_ENTRIES or self._dead * 2 <= len(heap):
            return
        target = self._sleep_target
        kept = [entry for entry in heap
                if not entry[2].cancelled or entry[0] == target]
        self._dead -= len(heap) - len(kept)
        heap[:] = kept
        heapq.heapify(heap)

    @do
    def _alarm(self, target):
        # One-shot: sleep to ``target``, then fill the wake channel.  A
        # stale alarm (the sleeper has since re-targeted or exited) fills
        # the channel anyway; the sleeper drains stale tokens before
        # parking and treats spurious wakes as a re-scan, so the worst
        # case is one extra loop turn.
        now = yield sys_now()
        if target > now:
            yield sys_sleep(target - now)
        if self._alarm_target == target:
            self._alarm_target = None
        yield self._wake.try_put(True)

    @do
    def _early(self, delay):
        yield sys_sleep(delay)
        yield self._fire_due()

    @do
    def _fire_due(self):
        # The one pop-and-fire loop (sleeper and early helpers): resumes
        # with ``(now, fired)``.  An entry is popped before its action
        # runs, so whoever pops it fires it — exactly once.
        now = yield sys_now()
        due: list[TimerHandle] = []
        while self._heap and self._heap[0][0] <= now:
            _deadline, _seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                self._dead -= 1
                continue
            due.append(handle)
        for handle in due:
            handle.fired = True
            self.fired += 1
            try:
                result = handle.action()
                if isinstance(result, M):
                    yield result
            except (KeyboardInterrupt, SystemExit, GeneratorExit):
                raise
            except BaseException:
                # A broken action must not take down every other timer
                # on the shard.
                self.action_errors += 1
        return now, len(due)

    @do
    def _sleeper(self):
        # Exists only while the heap holds a live entry: an idle wheel
        # costs nothing, an armed one sleeps exactly to the next
        # deadline — zero wakeups in between.
        try:
            while self._heap:
                now, fired = yield self._fire_due()
                if fired:
                    continue  # actions took time: re-scan before sleeping
                if not self._heap:
                    return
                # Skip dead deadlines: waking for one buys nothing but
                # the next.  The last entry stays even if dead — it is
                # what keeps this thread alive between a cancel and the
                # next schedule, at one wakeup per timeout period.
                while len(self._heap) > 1 and self._heap[0][2].cancelled:
                    heapq.heappop(self._heap)
                    self._dead -= 1
                target = self._heap[0][0]
                if target - now <= self.tick:
                    # Near: a direct sleep straight to the deadline.
                    self._near_target = target
                    yield sys_sleep(max(0.0, target - now))
                    self._near_target = None
                else:
                    # Far: park on the wake channel with an alarm at the
                    # deadline.  schedule() of an earlier deadline fills
                    # the channel and the loop re-targets.
                    self._sleep_target = target
                    yield self._wake.try_take()  # drain any stale token
                    if self._alarm_target is None or target < self._alarm_target:
                        self._alarm_target = target
                        self.alarm_spawns += 1
                        yield sys_fork(self._alarm(target),
                                       name=f"{self.name}-alarm")
                    yield self._wake.take()
                    self._sleep_target = None
                self.wakeups += 1
        finally:
            # Plain code: safe under GeneratorExit (abandonment).  The
            # next schedule() respawns the sleeper.
            self._running = False
            self._sleep_target = self._near_target = None
