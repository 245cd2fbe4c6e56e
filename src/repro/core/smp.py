"""Multi-worker scheduling with work stealing (the paper's §4.4 roadmap).

The paper runs several ``worker_main`` loops over one shared queue and
notes: "Our current design can be further improved by implementing a
separate task queue for each scheduler and using work stealing to balance
the loads."  :class:`SmpScheduler` is that improvement: each logical worker
owns a deque; a worker whose queue empties steals half of the largest
victim queue (from the back, classic work-stealing order).

Execution is deterministic: workers advance round-robin, one batch per
turn, on one OS thread.  This models the *scheduling architecture* —
placement, balancing, per-worker locality — which is exactly what the
paper's SMP section is about; Python's GIL rules out true parallel
speedup either way (DESIGN.md §2 documents the substitution).  The safety
argument carries over: threads only interact through system calls, so any
interleaving of worker turns is a valid schedule.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Any, Callable

from .exceptions import DeadlockError
from .monad import M
from .scheduler import BATCH_LIMIT, TCB, Scheduler, SyscallHandler
from .trace import Trace

__all__ = ["SmpScheduler"]


class _Worker(Scheduler):
    """One logical worker: a Scheduler that reports thread exits upward."""

    def __init__(self, parent: "SmpScheduler", index: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.parent = parent
        self.index = index
        self.batches_run = 0

    def _new_tcb(self, name: str | None) -> TCB:
        # Children forked on this worker stay local (locality), but ids
        # and live counts are global.
        tcb = TCB(next(self.parent._tids), name)
        self.parent.live_threads += 1
        self.parent._home[tcb] = self
        return tcb

    def _finish(self, tcb: TCB, value: Any, exc: BaseException | None) -> None:
        super()._finish(tcb, value, exc)
        # Scheduler._finish decremented our local counter; mirror globally.
        self.live_threads += 1
        self.parent.live_threads -= 1
        self.parent._home.pop(tcb, None)


class SmpScheduler:
    """N deterministic workers with per-worker queues and work stealing."""

    def __init__(
        self,
        workers: int = 4,
        batch_limit: int = BATCH_LIMIT,
        uncaught: str | Callable[[TCB, BaseException], None] = "raise",
        steal_seed: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._tids = itertools.count(1)
        self.live_threads = 0
        self.workers = [
            _Worker(self, index, batch_limit=batch_limit, uncaught=uncaught)
            for index in range(workers)
        ]
        self._spawn_cursor = 0
        self._turn = 0
        self._rng = random.Random(steal_seed)
        # Home worker per live TCB: device loops resume a parked thread on
        # the worker that created it (locality is preserved across parks).
        self._home: dict[TCB, _Worker] = {}
        #: Number of steal operations performed.
        self.steals = 0
        #: Number of thread activations moved by stealing.
        self.tasks_stolen = 0

    # ------------------------------------------------------------------
    # Registration fans out to every worker.
    # ------------------------------------------------------------------
    def register_syscall(self, node_type: type, handler: SyscallHandler) -> None:
        """Install a handler on every worker."""
        for worker in self.workers:
            worker.register_syscall(node_type, handler)

    # ------------------------------------------------------------------
    # Spawning: round-robin placement (cheapest balanced default).
    # ------------------------------------------------------------------
    def spawn(
        self,
        comp: M | Callable[[], M],
        name: str | None = None,
        worker: int | None = None,
    ) -> TCB:
        """Create a thread on a worker (round-robin unless pinned)."""
        if worker is None:
            worker = self._spawn_cursor
            self._spawn_cursor = (self._spawn_cursor + 1) % len(self.workers)
        return self.workers[worker].spawn(comp, name=name)

    # ------------------------------------------------------------------
    # Device-loop surface: the same spawn/step/ready/resume* a single
    # Scheduler offers, so a device loop can resume a parked thread on
    # its home worker.
    # ------------------------------------------------------------------
    @property
    def ready(self) -> int:
        """Total runnable activations across all workers (truthy when any
        worker has work — the shape runtimes test before blocking)."""
        return sum(len(worker.ready) for worker in self.workers)

    def _worker_of(self, tcb: TCB) -> _Worker:
        worker = self._home.get(tcb)
        return worker if worker is not None else self.workers[self._turn]

    def resume(self, tcb: TCB, thunk: Callable | Trace) -> None:
        """Requeue a parked thread on its home worker.

        Like :meth:`Scheduler.resume`, ``thunk`` is a forcing thunk or a
        ready trace node (``resume_error`` enqueues ``SysThrow`` directly).
        """
        self._worker_of(tcb).resume(tcb, thunk)

    def resume_value(self, tcb: TCB, cont: Callable, value: Any) -> None:
        """Resume a parked thread by applying ``cont`` to ``value``."""
        self._worker_of(tcb).resume_value(tcb, cont, value)

    def resume_error(self, tcb: TCB, exc: BaseException) -> None:
        """Resume a parked thread by delivering ``exc``."""
        self._worker_of(tcb).resume_error(tcb, exc)

    def kill(self, tcb: TCB, exc: BaseException | None = None) -> None:
        """Request cooperative cancellation (same semantics as Scheduler)."""
        self._worker_of(tcb).kill(tcb, exc)

    # ------------------------------------------------------------------
    # The interleaved SMP loop.
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance one worker by one batch (stealing first if idle).

        Returns ``False`` when no worker has runnable work.
        """
        for _attempt in range(len(self.workers)):
            worker = self.workers[self._turn]
            self._turn = (self._turn + 1) % len(self.workers)
            if not worker.ready:
                self._steal_for(worker)
            if worker.ready:
                worker.batches_run += 1
                worker.step()
                return True
        return False

    def _steal_for(self, thief: _Worker) -> None:
        victim = max(
            (w for w in self.workers if w is not thief),
            key=lambda w: len(w.ready),
            default=None,
        )
        if victim is None or not victim.ready:
            return
        take = max(1, len(victim.ready) // 2)
        self.steals += 1
        moved = deque()
        for _ in range(take):
            # Steal from the back: the oldest waiting work, preserving the
            # victim's locality at its queue front.  Entries move opaquely
            # — (tcb, thunk-or-node) pairs, including SysGen fast-path
            # resumes — so stealing needs no knowledge of how a thread's
            # continuation is represented.
            moved.appendleft(victim.ready.pop())
        thief.ready.extend(moved)
        self.tasks_stolen += take

    def run(self) -> None:
        """Run until every queue is empty (parked threads may remain)."""
        while self.step():
            pass

    def run_all(self) -> None:
        """Run until no live thread remains; raises on deadlock."""
        self.run()
        if self.live_threads > 0:
            raise DeadlockError(
                f"{self.live_threads} thread(s) blocked with no ready work"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Aggregated and per-worker counters."""
        return {
            "live_threads": self.live_threads,
            "steals": self.steals,
            "tasks_stolen": self.tasks_stolen,
            "total_syscalls": sum(w.total_syscalls for w in self.workers),
            "per_worker_batches": [w.batches_run for w in self.workers],
            "per_worker_syscalls": [w.total_syscalls for w in self.workers],
        }

    @property
    def uncaught_errors(self) -> list:
        """Uncaught errors across all workers (with ``uncaught="store"``)."""
        collected = []
        for worker in self.workers:
            collected.extend(worker.uncaught_errors)
        return collected
