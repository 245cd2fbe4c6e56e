"""E5 — microbenchmarks of the concurrency primitives (real time).

Unlike the figure benchmarks (virtual-time simulations), these measure the
Python implementation's real costs: thread spawn rate, context-switch rate,
syscall dispatch, channel and mutex operation throughput.  They support the
paper's qualitative claim (§5.1) that application-level primitives are
"extremely lightweight" — scheduling work is small constant-factor Python,
no OS involvement.

Each ``test_*`` below is a pytest-benchmark microbenchmark::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_primitives.py

Per-thread memory (the other half of §5.1) is ``bench_memory.py``; its
hard ceiling is gated in tier-1 by
``tests/bench/test_runners.py::TestMemoryRunner``.
"""

from __future__ import annotations

from repro.core.do_notation import do
from repro.core.monad import pure
from repro.core.scheduler import Scheduler
from repro.core.stm import TVar, modify_tvar
from repro.core.sync import Channel, Mutex
from repro.core.syscalls import sys_nbio, sys_yield

SPAWN_COUNT = 10_000
SWITCH_ROUNDS = 20_000


def test_spawn_rate(benchmark):
    """Threads created and run to completion per second."""

    @do
    def trivial():
        yield pure(None)

    def run():
        sched = Scheduler()
        for _ in range(SPAWN_COUNT):
            sched.spawn(trivial())
        sched.run()
        return sched.stats()

    stats = benchmark(run)
    assert stats["live_threads"] == 0


def test_context_switch_rate(benchmark):
    """Yield-driven switches per second between two threads."""

    @do
    def yielder(rounds):
        for _ in range(rounds):
            yield sys_yield()

    def run():
        sched = Scheduler(batch_limit=1)
        sched.spawn(yielder(SWITCH_ROUNDS))
        sched.spawn(yielder(SWITCH_ROUNDS))
        sched.run()
        return sched.total_switches

    switches = benchmark(run)
    assert switches >= 2 * SWITCH_ROUNDS


def test_nbio_dispatch_rate(benchmark):
    """sys_nbio round trips per second (one thread, batched)."""
    counter = {"n": 0}

    @do
    def worker(rounds):
        for _ in range(rounds):
            yield sys_nbio(lambda: counter.__setitem__("n", counter["n"] + 1))

    def run():
        counter["n"] = 0
        sched = Scheduler(batch_limit=1024)
        sched.spawn(worker(SWITCH_ROUNDS))
        sched.run()
        return counter["n"]

    count = benchmark(run)
    assert count == SWITCH_ROUNDS


def test_channel_throughput(benchmark):
    """Producer/consumer items per second through a Channel."""
    items = 10_000

    @do
    def producer(chan):
        for i in range(items):
            yield chan.write(i)

    @do
    def consumer(chan, out):
        for _ in range(items):
            value = yield chan.read()
            out.append(value)

    def run():
        chan = Channel()
        out: list = []
        sched = Scheduler()
        sched.spawn(producer(chan))
        sched.spawn(consumer(chan, out))
        sched.run()
        return len(out)

    moved = benchmark(run)
    assert moved == items


def test_mutex_cycle_rate(benchmark):
    """Uncontended acquire/release cycles per second."""
    cycles = 10_000

    @do
    def worker(mutex):
        for _ in range(cycles):
            yield mutex.acquire()
            yield mutex.release()

    def run():
        mutex = Mutex()
        sched = Scheduler(batch_limit=1024)
        sched.spawn(worker(mutex))
        sched.run()
        return not mutex.locked

    assert benchmark(run)


def test_stm_transaction_rate(benchmark):
    """Read-modify-write transactions per second on one TVar."""
    rounds = 10_000

    @do
    def worker(tv):
        for _ in range(rounds):
            yield modify_tvar(tv, lambda x: x + 1)

    def run():
        tv = TVar(0)
        sched = Scheduler(batch_limit=1024)
        sched.spawn(worker(tv))
        sched.run()
        return tv.value

    assert benchmark(run) == rounds

