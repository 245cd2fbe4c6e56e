"""Scheduler semantics: forking, yielding, batching, exceptions, join."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.do_notation import do
from repro.core.exceptions import (
    DeadlockError,
    ThreadKilled,
    UncaughtThreadError,
    UnsupportedSyscallError,
)
from repro.core.monad import pure, replicateM_
from repro.core.scheduler import Scheduler, run_threads
from repro.core.syscalls import (
    sys_catch,
    sys_epoll_wait,
    sys_fork,
    sys_get_tid,
    sys_nbio,
    sys_ret,
    sys_throw,
    sys_yield,
)
from repro.core.thread import ThreadGroup, spawn


class TestForkAndRun:
    def test_fork_runs_child(self):
        log = []

        @do
        def child():
            yield sys_nbio(lambda: log.append("child"))

        @do
        def parent():
            yield sys_fork(child())
            yield sys_nbio(lambda: log.append("parent"))

        sched = Scheduler()
        sched.spawn(parent())
        sched.run()
        assert sorted(log) == ["child", "parent"]

    def test_fork_interleaving_matches_figure4(self):
        """The server/client example from the paper's Figure 4."""
        log = []

        @do
        def client(i):
            yield sys_nbio(lambda: log.append(f"sys_call_2:{i}"))

        @do
        def server(remaining):
            yield sys_nbio(lambda: log.append("sys_call_1"))
            if remaining > 0:
                yield sys_fork(client(remaining))
                yield server(remaining - 1)

        sched = Scheduler(batch_limit=1)
        sched.spawn(server(3))
        sched.run()
        assert log.count("sys_call_1") == 4
        assert sorted(e for e in log if e.startswith("sys_call_2")) == [
            "sys_call_2:1",
            "sys_call_2:2",
            "sys_call_2:3",
        ]

    def test_many_threads_all_run(self):
        counter = {"n": 0}

        @do
        def worker():
            yield sys_nbio(lambda: counter.__setitem__("n", counter["n"] + 1))

        sched = Scheduler()
        for _ in range(1000):
            sched.spawn(worker())
        sched.run()
        assert counter["n"] == 1000

    def test_sys_ret_terminates_early(self):
        log = []

        @do
        def worker():
            yield sys_nbio(lambda: log.append("before"))
            yield sys_ret("early")
            yield sys_nbio(lambda: log.append("after"))  # unreachable

        tcb = run_threads([worker()])[0]
        assert log == ["before"]
        assert tcb.state == "done"

    def test_fork_lazy_child_factory(self):
        built = []

        def factory():
            built.append(True)
            return pure(None)

        @do
        def parent():
            yield sys_fork(factory)
            assert built == []  # child not built until scheduled

        run_threads([parent()])
        assert built == [True]

    def test_tids_unique_and_get_tid(self):
        tids = []

        @do
        def worker():
            tid = yield sys_get_tid()
            tids.append(tid)

        sched = Scheduler()
        for _ in range(10):
            sched.spawn(worker())
        sched.run()
        assert len(set(tids)) == 10


class TestYieldAndFairness:
    def test_yield_round_robin(self):
        log = []

        @do
        def worker(tag, n):
            for _ in range(n):
                yield sys_nbio(lambda t=tag: log.append(t))
                yield sys_yield()

        sched = Scheduler(batch_limit=1)
        sched.spawn(worker("a", 3))
        sched.spawn(worker("b", 3))
        sched.run()
        # With batch 1 and round-robin, a and b strictly alternate.
        assert log == ["a", "b", "a", "b", "a", "b"]

    def test_default_quantum_alternates_request_loops_within_eight(self):
        # Two always-ready request loops: an iteration reads (one
        # sys_nbio) and answers through one nested @do call around one
        # more.  A nested call costs no node, so an iteration is two
        # system calls, and the default quantum must switch threads
        # within eight iterations — one busy connection cannot hold the
        # loop for a long run of requests.
        log = []

        @do
        def answer():
            yield sys_nbio(lambda: None)

        @do
        def serve(tag, n):
            for _ in range(n):
                yield sys_nbio(lambda t=tag: log.append(t))
                yield answer()

        sched = Scheduler()
        sched.spawn(serve("a", 100))
        sched.spawn(serve("b", 100))
        sched.run()
        runs = [len(list(group)) for _tag, group in itertools.groupby(log)]
        assert sorted(log) == ["a"] * 100 + ["b"] * 100
        assert max(runs) <= 8, runs

    def test_batching_keeps_thread_running(self):
        log = []

        @do
        def worker(tag, n):
            for _ in range(n):
                yield sys_nbio(lambda t=tag: log.append(t))

        sched = Scheduler(batch_limit=1000)
        sched.spawn(worker("a", 5))
        sched.spawn(worker("b", 5))
        sched.run()
        # Large batch: each thread's nbio calls run contiguously.
        assert log == ["a"] * 5 + ["b"] * 5

    def test_batch_exhaustion_switches(self):
        log = []

        @do
        def worker(tag):
            for _ in range(4):
                yield sys_nbio(lambda t=tag: log.append(t))

        sched = Scheduler(batch_limit=2)
        sched.spawn(worker("a"))
        sched.spawn(worker("b"))
        sched.run()
        assert log.count("a") == 4 and log.count("b") == 4
        # Neither thread ran all 4 steps contiguously.
        assert log != ["a"] * 4 + ["b"] * 4

    def test_batch_limit_validation(self):
        with pytest.raises(ValueError):
            Scheduler(batch_limit=0)

    def test_stats_counters(self):
        @do
        def worker():
            yield sys_yield()
            yield sys_yield()

        sched = Scheduler()
        sched.spawn(worker())
        sched.run()
        stats = sched.stats()
        assert stats["live_threads"] == 0
        assert stats["total_syscalls"] >= 3
        assert stats["total_switches"] >= 3  # initial + 2 yields


class TestUncaughtPolicy:
    def test_raise_policy(self):
        @do
        def bad():
            yield pure(None)
            raise ValueError("x")

        sched = Scheduler(uncaught="raise")
        sched.spawn(bad())
        with pytest.raises(UncaughtThreadError) as info:
            sched.run()
        assert isinstance(info.value.exc, ValueError)

    def test_store_policy(self):
        @do
        def bad():
            yield pure(None)
            raise ValueError("x")

        sched = Scheduler(uncaught="store")
        tcb = sched.spawn(bad())
        sched.run()
        assert len(sched.uncaught_errors) == 1
        assert sched.uncaught_errors[0][0] is tcb
        assert tcb.state == "failed"

    def test_callable_policy(self):
        seen = []

        @do
        def bad():
            yield pure(None)
            raise ValueError("x")

        sched = Scheduler(uncaught=lambda tcb, exc: seen.append((tcb.tid, exc)))
        sched.spawn(bad())
        sched.run()
        assert len(seen) == 1

    def test_unsupported_syscall_is_thread_error(self):
        @do
        def worker():
            try:
                yield sys_epoll_wait(1, 1)  # no backend on bare scheduler
            except UnsupportedSyscallError:
                return "refused"

        assert run_threads([worker()])[0].result == "refused"


class TestJoin:
    def test_join_returns_result(self):
        @do
        def child():
            yield sys_yield()
            return 99

        @do
        def parent():
            handle = yield spawn(child())
            value = yield handle.join()
            return value

        assert run_threads([parent()])[0].result == 99

    def test_join_after_completion(self):
        @do
        def child():
            return 7
            yield  # pragma: no cover

        @do
        def parent():
            handle = yield spawn(child())
            # Let the child finish first.
            for _ in range(5):
                yield sys_yield()
            assert handle.finished
            value = yield handle.join()
            return value

        assert run_threads([parent()])[0].result == 7

    def test_join_rethrows_child_error(self):
        @do
        def child():
            yield pure(None)
            raise RuntimeError("child died")

        @do
        def parent():
            handle = yield spawn(child())
            try:
                yield handle.join()
            except RuntimeError as exc:
                return f"saw: {exc}"

        assert run_threads([parent()])[0].result == "saw: child died"

    def test_thread_group(self):
        @do
        def worker(i):
            yield sys_yield()
            return i * i

        @do
        def parent():
            group = ThreadGroup()
            for i in range(5):
                yield group.spawn(worker(i))
            results = yield group.join()
            return results

        assert run_threads([parent()])[0].result == [0, 1, 4, 9, 16]

    def test_multiple_joiners(self):
        results = []

        @do
        def child():
            yield sys_yield()
            yield sys_yield()
            return "value"

        @do
        def joiner(handle):
            value = yield handle.join()
            yield sys_nbio(lambda: results.append(value))

        @do
        def parent():
            handle = yield spawn(child())
            yield sys_fork(joiner(handle))
            yield sys_fork(joiner(handle))

        sched = Scheduler()
        sched.spawn(parent())
        sched.run()
        assert results == ["value", "value"]


class TestKill:
    def test_kill_ready_thread(self):
        log = []

        @do
        def victim():
            for _ in range(100):
                yield sys_yield()
                log.append("tick")

        sched = Scheduler(uncaught="store")
        tcb = sched.spawn(victim())
        sched.step()  # let it start
        sched.kill(tcb)
        sched.run()
        assert tcb.state == "failed"
        assert isinstance(tcb.error, ThreadKilled)
        assert len(log) < 100

    def test_kill_finished_thread_is_noop(self):
        @do
        def quick():
            return 1
            yield  # pragma: no cover

        sched = Scheduler()
        tcb = sched.spawn(quick())
        sched.run()
        sched.kill(tcb)
        assert tcb.state == "done"

    def test_killed_thread_runs_finalizers(self):
        log = []

        @do
        def victim():
            try:
                for _ in range(100):
                    yield sys_yield()
            finally:
                log.append("cleanup")

        sched = Scheduler(uncaught="store")
        tcb = sched.spawn(victim())
        sched.step()
        sched.kill(tcb)
        sched.run()
        assert log == ["cleanup"]


class TestDeadlockDetection:
    def test_run_all_reports_deadlock(self):
        from repro.core.sync import MVar

        box = MVar()

        @do
        def waiter():
            yield box.take()  # never filled

        sched = Scheduler()
        sched.spawn(waiter())
        with pytest.raises(DeadlockError):
            sched.run_all()


class TestExceptionsViaCombinators:
    """sys_catch/sys_throw used directly (no generator sugar)."""

    def test_catch_returns_body_value(self):
        comp = sys_catch(pure(41).fmap(lambda x: x + 1), lambda exc: pure(-1))
        assert run_threads([comp])[0].result == 42

    def test_catch_handles_throw(self):
        comp = sys_catch(
            sys_throw(ValueError("v")).then(pure("unreached")),
            lambda exc: pure(f"handled {type(exc).__name__}"),
        )
        assert run_threads([comp])[0].result == "handled ValueError"

    def test_nested_catch_inner_wins(self):
        inner = sys_catch(sys_throw(KeyError("k")), lambda exc: pure("inner"))
        outer = sys_catch(inner, lambda exc: pure("outer"))
        assert run_threads([outer])[0].result == "inner"

    def test_handler_rethrow_reaches_outer(self):
        inner = sys_catch(
            sys_throw(KeyError("k")), lambda exc: sys_throw(ValueError("v"))
        )
        outer = sys_catch(inner, lambda exc: pure(type(exc).__name__))
        assert run_threads([outer])[0].result == "ValueError"

    def test_throw_skips_rest_of_body(self):
        log = []
        body = (
            sys_nbio(lambda: log.append("a"))
            .then(sys_throw(RuntimeError()))
            .then(sys_nbio(lambda: log.append("b")))
        )
        comp = sys_catch(body, lambda exc: pure(None))
        run_threads([comp])
        assert log == ["a"]

    def test_sys_finally_on_success(self):
        log = []
        from repro.core.syscalls import sys_finally

        comp = sys_finally(pure("ok"), sys_nbio(lambda: log.append("fin")))
        assert run_threads([comp])[0].result == "ok"
        assert log == ["fin"]

    def test_sys_finally_on_error(self):
        log = []
        from repro.core.syscalls import sys_finally

        comp = sys_catch(
            sys_finally(sys_throw(ValueError()), sys_nbio(lambda: log.append("fin"))),
            lambda exc: pure("caught"),
        )
        assert run_threads([comp])[0].result == "caught"
        assert log == ["fin"]


@settings(max_examples=30)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=20),
    st.integers(1, 64),
)
def test_every_forked_thread_runs_exactly_once(counts, batch):
    """Property: forking a random tree of threads runs each exactly once."""
    log = []

    @do
    def leaf(ident):
        yield sys_nbio(lambda: log.append(ident))

    @do
    def root():
        ident = 0
        for fanout in counts:
            for _ in range(fanout):
                ident += 1
                yield sys_fork(leaf(ident))
            yield sys_yield()

    sched = Scheduler(batch_limit=batch)
    sched.spawn(root())
    sched.run()
    expected = list(range(1, sum(counts) + 1))
    assert sorted(log) == expected
