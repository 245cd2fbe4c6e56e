"""E1 — per-thread memory consumption (paper §5.1).

The paper launches ten million threads that loop on ``sys_yield`` and reads
the live heap from the garbage collector's profile: 480MB, i.e. 48 bytes
per thread (a GHC closure plus an empty exception stack).

The measurement here is the same *protocol* on the Python implementation:
spawn N parked monadic threads, force a full collection, and read the live
heap delta with ``tracemalloc``.  Python objects are larger than GHC
closures, so the constant differs; what must reproduce is the *class* of
the result — per-thread cost that is flat in N and orders of magnitude
below a kernel thread's 32KB stack reservation.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from ..core.do_notation import do
from ..core.monad import M
from ..core.scheduler import Scheduler
from ..core.syscalls import sys_yield
from ..core.trace import SysYield, Trace

__all__ = ["measure_monadic_thread_bytes", "parked_yield_thread"]


@do
def parked_yield_thread(rounds: int = 1_000_000_000):
    """The paper's memory-test thread: a loop of ``sys_yield``."""
    for _ in range(rounds):
        yield sys_yield()


def measure_monadic_thread_bytes(
    n_threads: int,
    steps_per_thread: int = 1,
    use_do_notation: bool = True,
) -> dict:
    """Spawn ``n_threads`` yield-looping threads; measure bytes, blocks each.

    Each thread is advanced ``steps_per_thread`` scheduler steps so its
    state is a genuine parked continuation, not an unstarted closure.
    ``use_do_notation=False`` measures raw-combinator threads instead
    (closer to the paper's closure representation, no generator frame).
    """
    sched = Scheduler(batch_limit=1)
    gc.collect()
    tracemalloc.start()
    baseline, _peak = tracemalloc.get_traced_memory()
    baseline_blocks = sys.getallocatedblocks()

    make = parked_yield_thread if use_do_notation else _combinator_yield_loop
    for _ in range(n_threads):
        sched.spawn(make())

    for _ in range(steps_per_thread):
        for _ in range(n_threads):
            sched.step()

    gc.collect()
    live, _peak = tracemalloc.get_traced_memory()
    blocks = sys.getallocatedblocks() - baseline_blocks
    tracemalloc.stop()
    total = max(0, live - baseline)
    return {
        "threads": n_threads,
        "live_bytes": total,
        "bytes_per_thread": total / n_threads if n_threads else 0.0,
        "blocks_per_thread": blocks / n_threads if n_threads else 0.0,
        "representation": "do-notation" if use_do_notation else "combinators",
    }


def _combinator_yield_loop() -> M:
    """An infinite yield loop with no generator frame: the thread state is
    purely the trace-node closure chain, like the paper's representation."""

    def run(c) -> Trace:
        def step() -> Trace:
            return SysYield(step)

        return step()

    return M(run)
