"""Differential tests: the ``@do`` fast path against the slow reference.

:func:`repro.core.do_notation.do` drives generators through the scheduler
(``SysGen`` — the generator *is* the continuation, and a nested ``@do`` call
runs inline on the region's stack of callers); :func:`do_slow` is the
original closure-trampoline driver kept as the executable reference.  Both
must be observably identical: same results, same exception types and
ordering, same side-effect order, same thread states and uncaught errors.

Node counts (``total_syscalls`` / per-TCB ``syscall_count``) follow their
own rule instead of equality: a nested ``@do`` call costs the fast path no
node, where the slow path pays two for a call that returns (its region's
``SysCatch`` and ``SysEndCatch``) and four for one that raises (entry, the
throw, the throw passing its finished frame, the caller's re-armed region).
So per thread the fast path never costs more, and programs without nested
calls cost exactly the same.

Every test here builds one program, runs it through both decorators on
fresh schedulers, and compares everything observable.
"""

from __future__ import annotations

import gc
import sys

from hypothesis import given, settings, strategies as st

from repro.core.do_notation import do, do_slow
from repro.core.exceptions import ThreadKilled
from repro.core.monad import pure, unit
from repro.core.scheduler import Scheduler
from repro.core.syscalls import sys_catch, sys_nbio, sys_sleep, sys_throw, sys_yield
from repro.core.trace import DoProtocolError, SysSleep

#: What the two drivers must agree on exactly.
SEMANTICS = ("log", "results", "errors", "states", "uncaught")


def run_differential(build, *, batch_limit=128):
    """Run ``build(do_impl, log)``'s thread(s) under both drivers.

    ``build`` returns one computation (or a list of them) when given a
    ``@do``-equivalent decorator and a shared side-effect log.  Returns the
    two observation dicts (fast first) for the caller to compare.
    """
    observations = []
    for impl in (do, do_slow):
        log: list = []
        sched = Scheduler(batch_limit=batch_limit, uncaught="store")
        comps = build(impl, log)
        if not isinstance(comps, list):
            comps = [comps]
        tcbs = [sched.spawn(comp) for comp in comps]
        sched.run()
        observations.append(
            {
                "log": log,
                "results": [t.result for t in tcbs],
                "errors": [type(t.error).__name__ if t.error else None for t in tcbs],
                "states": [t.state for t in tcbs],
                "syscall_counts": [t.syscall_count for t in tcbs],
                "total_syscalls": sched.total_syscalls,
                "uncaught": [type(e).__name__ for _t, e in sched.uncaught_errors],
            }
        )
    return observations


def run_both(build, **kwargs):
    """Both drivers' observations, checked against each other: identical
    semantics, and per thread the fast path costs no more nodes."""
    fast, slow = run_differential(build, **kwargs)
    diverged = {key: (fast[key], slow[key]) for key in SEMANTICS if fast[key] != slow[key]}
    assert not diverged, f"fast/slow divergence (fast, slow): {diverged}"
    for fast_count, slow_count in zip(fast["syscall_counts"], slow["syscall_counts"]):
        assert fast_count <= slow_count, (fast["syscall_counts"], slow["syscall_counts"])
    return fast, slow


def assert_identical(build, *, nested_calls=0, **kwargs):
    """:func:`run_both`, plus the node rule for programs whose nested
    ``@do`` calls all return: each costs the slow path exactly two nodes
    and the fast path none.  Returns the fast path's observations."""
    fast, slow = run_both(build, **kwargs)
    assert slow["total_syscalls"] == fast["total_syscalls"] + 2 * nested_calls, (
        fast["total_syscalls"], slow["total_syscalls"], nested_calls,
    )
    return fast


class TestReturnAndResults:
    def test_plain_return_value(self):
        def build(impl, log):
            @impl
            def prog():
                a = yield pure(20)
                b = yield pure(22)
                return a + b

            return prog()

        obs = assert_identical(build)
        assert obs["results"] == [42]

    def test_yields_mixing_pure_and_suspension(self):
        def build(impl, log):
            @impl
            def prog():
                total = 0
                for i in range(5):
                    total += yield pure(i)
                    yield sys_yield()
                    total += yield sys_nbio(lambda i=i: i * 10)
                return total

            return prog()

        obs = assert_identical(build)
        assert obs["results"] == [sum(range(5)) + sum(10 * i for i in range(5))]

    def test_nested_do_calls(self):
        def build(impl, log):
            @impl
            def inner(x):
                yield sys_yield()
                log.append(("inner", x))
                return x * 2

            @impl
            def outer():
                a = yield inner(3)
                b = yield inner(4)
                log.append("outer-done")
                return a + b

            return outer()

        obs = assert_identical(build, nested_calls=2)
        assert obs["results"] == [14]
        assert obs["log"] == [("inner", 3), ("inner", 4), "outer-done"]
        # Entry, two yields, SysEndCatch, SysRet (the slow path: 9).
        assert obs["total_syscalls"] == 5


class TestSynchronousFastPaths:
    """Each yield the fast path turns into a plain call — ``pure``,
    ``unit``, a nested call with or without keyword arguments,
    ``sys_nbio`` — against the slow path, deep inside nested frames."""

    def test_keyword_calls_and_pure_steps_inside_nested_frames(self):
        def build(impl, log):
            @impl
            def leaf(x, *, scale=1, tag="leaf"):
                got = yield pure(x)
                nothing = yield unit
                log.append((tag, got, nothing))
                read = yield sys_nbio(lambda: got * scale)
                return read

            @impl
            def middle(x, **options):
                a = yield leaf(x, **options)
                b = yield leaf(x + 1)
                yield pure()
                c = yield leaf(x + 2, tag="third")
                return a + b + c

            @impl
            def outer():
                first = yield middle(1, scale=10, tag="kw")
                second = yield middle(x=2)
                return first, second

            return outer()

        # Two middle calls, each making three leaf calls.
        obs = assert_identical(build, nested_calls=8)
        assert obs["results"] == [(10 + 2 + 3, 2 + 3 + 4)]
        assert obs["log"] == [
            ("kw", 1, None), ("leaf", 2, None), ("third", 3, None),
            ("leaf", 2, None), ("leaf", 3, None), ("third", 4, None),
        ]
        # Entry, six sys_nbio nodes, SysEndCatch, SysRet.
        assert obs["total_syscalls"] == 9

    def test_keyword_call_with_a_bad_keyword_lands_in_the_caller(self):
        def build(impl, log):
            @impl
            def callee(x):
                yield pure(x)
                return x

            @impl
            def caller():
                try:
                    yield callee(x=1, y=2)  # TypeError creating the generator
                except TypeError:
                    log.append("caught")
                value = yield callee(x=3)
                return value

            return caller()

        fast, _slow = run_both(build)
        assert fast["results"] == [3]
        assert fast["log"] == ["caught"]


class TestExceptionSemantics:
    def test_try_finally_on_error_ordering(self):
        def build(impl, log):
            @impl
            def prog():
                try:
                    try:
                        yield sys_yield()
                        log.append("body")
                        raise ValueError("boom")
                    finally:
                        log.append("inner-finally")
                except ValueError:
                    log.append("caught")
                finally:
                    log.append("outer-finally")
                return "ok"

            return prog()

        obs = assert_identical(build)
        assert obs["results"] == ["ok"]
        assert obs["log"] == ["body", "inner-finally", "caught", "outer-finally"]

    def test_uncaught_exception_escapes_identically(self):
        def build(impl, log):
            @impl
            def prog():
                yield sys_yield()
                raise KeyError("gone")

            return prog()

        obs = assert_identical(build)
        assert obs["errors"] == ["KeyError"]
        assert obs["uncaught"] == ["KeyError"]

    def test_monadic_throw_lands_in_generator_try(self):
        def build(impl, log):
            @impl
            def prog():
                try:
                    yield sys_throw(RuntimeError("monadic"))
                except RuntimeError as exc:
                    log.append(str(exc))
                    return "recovered"

            return prog()

        obs = assert_identical(build)
        assert obs["results"] == ["recovered"]
        assert obs["log"] == ["monadic"]

    def test_nbio_exception_surfaces_in_generator(self):
        def build(impl, log):
            def explode():
                raise OSError("io")

            @impl
            def prog():
                try:
                    yield sys_nbio(explode)
                except OSError:
                    log.append("caught-io")
                return "done"

            return prog()

        obs = assert_identical(build)
        assert obs["results"] == ["done"]

    def test_rethrow_after_catch_unwinds_outward(self):
        def build(impl, log):
            @impl
            def inner():
                try:
                    yield sys_yield()
                    raise ValueError("inner")
                except ValueError:
                    log.append("inner-caught")
                    raise KeyError("rethrown")

            @impl
            def outer():
                try:
                    yield inner()
                except KeyError:
                    log.append("outer-caught")
                return "ok"

            return outer()

        fast, slow = run_both(build)
        assert fast["results"] == ["ok"]
        assert fast["log"] == ["inner-caught", "outer-caught"]
        # Entry, the yield, SysEndCatch, SysRet; the raising nested call
        # costs the slow path four more.
        assert (fast["total_syscalls"], slow["total_syscalls"]) == (4, 8)

    def test_sys_catch_around_do_and_do_around_sys_catch(self):
        def build(impl, log):
            @impl
            def thrower():
                yield sys_yield()
                raise ValueError("from-do")

            def handler(exc):
                log.append(("handled", type(exc).__name__))
                return pure("handler-value")

            @impl
            def catcher():
                # @do try/except around a sys_catch region whose body is a
                # @do thread: both interop directions in one program.
                value = yield sys_catch(thrower(), handler)
                log.append(("after-catch", value))
                try:
                    yield sys_catch(sys_throw(KeyError("k")), lambda e: sys_throw(e))
                except KeyError:
                    log.append("do-caught-sys-rethrow")
                return value

            return catcher()

        obs = assert_identical(build)
        assert obs["results"] == ["handler-value"]
        assert obs["log"] == [
            ("handled", "ValueError"),
            ("after-catch", "handler-value"),
            "do-caught-sys-rethrow",
        ]


class TestKillSemantics:
    def _build_killable(self, impl, log):
        @impl
        def victim():
            try:
                while True:
                    yield sys_yield()
                    log.append("tick")
            finally:
                log.append("finalizer")

        return victim()

    def test_kill_mid_batch_runs_finalizers(self):
        observations = []
        for impl in (do, do_slow):
            log: list = []
            sched = Scheduler(batch_limit=1, uncaught="store")
            tcb = sched.spawn(self._build_killable(impl, log))
            for _ in range(4):
                sched.step()
            sched.kill(tcb)
            sched.run()
            observations.append(
                {
                    "log": log,
                    "state": tcb.state,
                    "error": type(tcb.error).__name__,
                    "syscalls": tcb.syscall_count,
                }
            )
        fast, slow = observations
        assert fast == slow
        assert fast["error"] == "ThreadKilled"
        assert fast["log"][-1] == "finalizer"

    def test_kill_parked_thread_delivered_on_resume(self):
        for impl in (do, do_slow):
            log: list = []
            parked: list = []
            sched = Scheduler(uncaught="store")
            sched.register_syscall(
                SysSleep,
                lambda s, tcb, node: (parked.append((tcb, node.cont)), None)[1],
            )

            @impl
            def sleeper():
                try:
                    yield sys_sleep(60.0)
                finally:
                    log.append("cleanup")

            tcb = sched.spawn(sleeper())
            sched.run()
            assert parked, impl.__name__
            sched.kill(tcb)
            parked_tcb, cont = parked[0]
            sched.resume_value(parked_tcb, cont, None)
            sched.run()
            assert tcb.state == "failed", impl.__name__
            assert isinstance(tcb.error, ThreadKilled), impl.__name__
            assert log == ["cleanup"], impl.__name__


class TestNestedCallErrors:
    """A failure inside a nested ``@do`` call lands in its caller."""

    def test_nested_protocol_error_is_caught_by_the_caller(self):
        def build(impl, log):
            @impl
            def callee():
                yield sys_yield()
                yield 42  # not a computation

            @impl
            def caller():
                try:
                    yield callee()
                except DoProtocolError:
                    log.append("caught")
                finally:
                    log.append("finally")
                return "ok"

            return caller()

        fast, _slow = run_both(build)
        assert fast["results"] == ["ok"]
        assert fast["states"] == ["done"]
        assert fast["log"] == ["caught", "finally"]

    def test_bad_arity_callee_is_caught_by_the_caller(self):
        def build(impl, log):
            @impl
            def callee(x):
                yield sys_yield()
                return x

            @impl
            def caller():
                try:
                    yield callee(1, 2)  # TypeError creating the generator
                except TypeError:
                    log.append("caught")
                value = yield callee(3)
                return value

            return caller()

        fast, _slow = run_both(build)
        assert fast["results"] == [3]
        assert fast["log"] == ["caught"]

    def test_kill_three_calls_deep_runs_finalizers_innermost_first(self):
        for impl in (do, do_slow):
            log: list = []
            parked: list = []
            sched = Scheduler(uncaught="store")
            sched.register_syscall(
                SysSleep,
                lambda s, tcb, node: (parked.append((tcb, node.cont)), None)[1],
            )

            @impl
            def level(depth):
                try:
                    if depth == 3:
                        yield sys_sleep(60.0)
                    else:
                        yield level(depth + 1)
                finally:
                    log.append(depth)

            tcb = sched.spawn(level(1))
            sched.run()
            assert parked, impl.__name__
            sched.kill(tcb)
            parked_tcb, cont = parked[0]
            sched.resume_value(parked_tcb, cont, None)
            sched.run()
            assert tcb.state == "failed", impl.__name__
            assert isinstance(tcb.error, ThreadKilled), impl.__name__
            assert log == [3, 2, 1], impl.__name__

    def test_deep_recursive_chain_uses_constant_stack(self):
        # 10,000 nested calls, ten times the default recursion limit: a
        # driver that recursed per call would overflow.
        def build(impl, log):
            @impl
            def down(n):
                if n == 0:
                    yield sys_yield()
                    return 0
                below = yield down(n - 1)
                return below + 1

            return down(10_000)

        obs = assert_identical(build, nested_calls=10_000)
        assert obs["results"] == [10_000]
        # Entry, the one yield, SysEndCatch, SysRet.
        assert obs["total_syscalls"] == 4


class TestPureYieldBounces:
    def test_long_pure_chain_constant_stack(self):
        # 100k consecutive pure yields: the trampoline must flatten both
        # paths (a recursive driver would blow the stack), and counters
        # must agree exactly.
        def build(impl, log):
            @impl
            def prog():
                total = 0
                for i in range(100_000):
                    total += yield pure(1)
                return total

            return prog()

        obs = assert_identical(build)
        assert obs["results"] == [100_000]

    def test_pure_bounce_counts_no_nodes(self):
        # A pure yield never reaches the scheduler: node counts stay at
        # region entry + exit on both paths.
        def build(impl, log):
            @impl
            def prog():
                a = yield pure(1)
                b = yield pure(2)
                return a + b

            return prog()

        obs = assert_identical(build)
        # SysGen/SysCatch entry + SysEndCatch + SysRet = 3 nodes.
        assert obs["total_syscalls"] == 3


class TestAbandonedThreads:
    def test_abandoned_generator_collects_quietly(self):
        # A thread parked forever whose scheduler is dropped: the live
        # generator is garbage collected; a yield-inside-finally cleanup
        # cannot run (matches GHC's collected threads).  Record the raw
        # unraisable events the collection produces and require that every
        # one is exactly the shape the production filter suppresses — i.e.
        # nothing escapes as noise, on either path.
        from repro.core import do_notation

        for impl in (do, do_slow):

            @impl
            def waiter():
                try:
                    yield sys_sleep(3600.0)
                finally:
                    yield sys_yield()  # illegal during GC finalization

            parked: list = []
            sched = Scheduler()
            sched.register_syscall(
                SysSleep,
                lambda s, tcb, node: (parked.append((tcb, node)), None)[1],
            )
            sched.spawn(waiter())
            sched.run()
            assert parked, impl.__name__
            gc.collect()  # flush unrelated garbage before recording
            raw: list = []
            prev_hook = sys.unraisablehook
            sys.unraisablehook = lambda args: raw.append(args)
            try:
                del sched, parked
                gc.collect()
            finally:
                sys.unraisablehook = prev_hook
            noise = [
                event
                for event in raw
                if not (
                    isinstance(event.exc_value, RuntimeError)
                    and event.exc_value.args
                    == ("generator ignored GeneratorExit",)
                    and do_notation._is_do_generator(event.object)
                )
            ]
            assert not noise, (impl.__name__, noise)


class TestCounterSemantics:
    def test_node_counts_match_per_thread_and_total(self):
        def build(impl, log):
            @impl
            def child(n):
                for _ in range(n):
                    yield sys_yield()
                return n

            @impl
            def parent():
                a = yield child(3)
                b = yield child(2)
                return a + b

            return [parent(), child(4)]

        fast, slow = run_both(build)
        assert fast["results"] == [5, 4]
        # parent: entry, five yields, SysEndCatch, SysRet; its two nested
        # calls cost the slow path four more.  child(4) runs its own region.
        assert fast["syscall_counts"] == [8, 7]
        assert slow["syscall_counts"] == [12, 7]

    def test_batch_limit_one_interleaving_matches(self):
        def build(impl, log):
            @impl
            def worker(tag, rounds):
                for i in range(rounds):
                    log.append((tag, i))
                    yield sys_yield()

            return [worker("a", 3), worker("b", 3)]

        obs = assert_identical(build, batch_limit=1)
        # Round-robin interleaving, preserved exactly by the fast path.
        assert obs["log"] == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2),
        ]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sampled_from(["pure", "yield", "nbio", "raise_catch", "nested"]),
        min_size=0,
        max_size=12,
    )
)
def test_property_random_programs_identical(ops):
    """Random mixed programs observe no fast/slow divergence, and their
    nested calls are the only difference in node counts."""

    def build(impl, log):
        @impl
        def nested(x):
            yield sys_yield()
            return x + 1

        @impl
        def prog():
            acc = 0
            for index, op in enumerate(ops):
                if op == "pure":
                    acc += yield pure(index)
                elif op == "yield":
                    yield sys_yield()
                    log.append(("y", index))
                elif op == "nbio":
                    acc += yield sys_nbio(lambda index=index: index * 2)
                elif op == "raise_catch":
                    try:
                        raise ValueError(index)
                    except ValueError:
                        log.append(("c", index))
                elif op == "nested":
                    acc += yield nested(index)
            return acc

        return prog()

    assert_identical(build, nested_calls=ops.count("nested"))
