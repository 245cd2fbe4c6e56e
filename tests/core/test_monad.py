"""Unit and property tests for the CPS monad and its combinators."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.monad import (
    M,
    NotPureError,
    ap,
    bind,
    build_trace,
    fmap,
    foldM,
    for_each,
    join_m,
    mapM,
    mapM_,
    pure,
    replicateM,
    replicateM_,
    run_pure,
    sequence_,
    sequence_m,
    then,
    unless,
    when,
)
from repro.core.syscalls import sys_nbio, sys_yield
from repro.core.trace import SysRet, SysYield


class TestPure:
    def test_pure_returns_value(self):
        assert run_pure(pure(42)) == 42

    def test_pure_none_default(self):
        assert run_pure(pure()) is None

    def test_pure_preserves_identity(self):
        marker = object()
        assert run_pure(pure(marker)) is marker


class TestBind:
    def test_bind_chains_results(self):
        comp = pure(3).bind(lambda x: pure(x * 2))
        assert run_pure(comp) == 6

    def test_bind_free_function(self):
        assert run_pure(bind(pure(3), lambda x: pure(x + 1))) == 4

    def test_then_discards_first(self):
        assert run_pure(pure(1).then(pure(2))) == 2

    def test_then_free_function(self):
        assert run_pure(then(pure("a"), pure("b"))) == "b"

    def test_rshift_operator(self):
        assert run_pure(pure(1) >> pure(2) >> pure(3)) == 3

    def test_fmap(self):
        assert run_pure(pure(10).fmap(lambda x: x + 5)) == 15

    def test_fmap_free_function(self):
        assert run_pure(fmap(str, pure(7))) == "7"

    def test_ap(self):
        assert run_pure(ap(pure(lambda x: x * 3), pure(4))) == 12

    def test_join_m(self):
        assert run_pure(join_m(pure(pure("inner")))) == "inner"

    def test_long_bind_chain(self):
        comp = pure(0)
        for _ in range(200):
            comp = comp.bind(lambda x: pure(x + 1))
        assert run_pure(comp) == 200


class TestSequencing:
    def test_sequence_m_collects_in_order(self):
        assert run_pure(sequence_m([pure(1), pure(2), pure(3)])) == [1, 2, 3]

    def test_sequence_m_empty(self):
        assert run_pure(sequence_m([])) == []

    def test_sequence_discards(self):
        log = []
        actions = [sys_nbio(lambda i=i: log.append(i)) for i in range(3)]
        from repro.core.scheduler import run_threads

        run_threads([sequence_(actions)])
        assert log == [0, 1, 2]

    def test_mapM(self):
        assert run_pure(mapM(lambda x: pure(x * x), [1, 2, 3])) == [1, 4, 9]

    def test_mapM_(self):
        assert run_pure(mapM_(lambda x: pure(x), [1, 2])) is None

    def test_for_each_order(self):
        seen = []
        from repro.core.scheduler import run_threads

        run_threads(
            [for_each("abc", lambda ch: sys_nbio(lambda ch=ch: seen.append(ch)))]
        )
        assert seen == ["a", "b", "c"]

    def test_replicateM(self):
        assert run_pure(replicateM(4, pure("x"))) == ["x"] * 4

    def test_replicateM_(self):
        assert run_pure(replicateM_(4, pure("x"))) is None

    def test_when_true_runs(self):
        assert run_pure(when(True, pure(1)).then(pure("done"))) == "done"

    def test_unless(self):
        assert run_pure(unless(False, pure(9))) == 9
        assert run_pure(unless(True, pure(9))) is None

    def test_foldM(self):
        comp = foldM(lambda acc, x: pure(acc + x), 0, [1, 2, 3, 4])
        assert run_pure(comp) == 10

    def test_foldM_empty(self):
        assert run_pure(foldM(lambda acc, x: pure(acc + x), 7, [])) == 7

    def test_sequence_m_mixed_sync_async(self):
        # Suspending actions interleaved with pure glue must still collect
        # in order (exercises both arms of the append-side accumulator).
        from repro.core.scheduler import run_threads

        actions = []
        for i in range(6):
            if i % 2:
                actions.append(sys_yield().then(pure(i)))
            else:
                actions.append(pure(i))
        [tcb] = run_threads([sequence_m(actions)])
        assert tcb.result == [0, 1, 2, 3, 4, 5]

    def test_sequence_m_long_pure_chain_constant_stack(self):
        # The bounce trampoline must flatten synchronous completions; a
        # recursive driver would exhaust the Python stack long before 50k.
        n = 50_000
        assert run_pure(sequence_m([pure(i) for i in range(n)])) == list(range(n))

    def test_sequence_m_scales_linearly(self):
        # The accumulator appends (O(n) total); the old [x] + xs cons made
        # this O(n²) — at these sizes roughly a 16x-per-element blowup.
        import time

        def measure(n: int) -> float:
            comp = sequence_m([pure(i) for i in range(n)])
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                run_pure(comp)
                best = min(best, time.perf_counter() - t0)
            return best

        small, big = measure(1_000), measure(16_000)
        # Linear scaling predicts ~16x; quadratic predicts ~256x.  The
        # generous bound keeps slow shared CI machines from flaking.
        assert big < small * 60, (
            f"sequence_m scaled superlinearly: {small:.4f}s @1k vs "
            f"{big:.4f}s @16k"
        )


class TestBuildTrace:
    def test_build_trace_pure_is_ret(self):
        trace = build_trace(pure(5))
        assert isinstance(trace, SysRet)
        assert trace.value == 5

    def test_build_trace_custom_final(self):
        seen = []

        def final(value):
            seen.append(value)
            return SysRet(value)

        build_trace(pure("v"), final)
        assert seen == ["v"]

    def test_yield_produces_yield_node(self):
        trace = build_trace(sys_yield())
        assert isinstance(trace, SysYield)
        # Forcing the continuation finishes the thread.
        nxt = trace.cont()
        assert isinstance(nxt, SysRet)

    def test_run_pure_rejects_suspension(self):
        with pytest.raises(NotPureError):
            run_pure(sys_yield())

    def test_computation_is_lazy(self):
        effects = []
        comp = sys_nbio(lambda: effects.append("ran"))
        assert effects == []
        trace = build_trace(comp)
        assert effects == []  # constructing the node runs nothing
        # The scheduler's SYS_NBIO step: run the action, feed its result
        # to the continuation.
        assert isinstance(trace.cont(trace.action()), SysRet)
        assert effects == ["ran"]


# ----------------------------------------------------------------------
# Monad laws, observed through effect logs (the only observable besides
# the result): two computations are equivalent iff, run on a scheduler,
# they produce the same result and the same effect sequence.
# ----------------------------------------------------------------------
def effectful(tag, log):
    """An effectful computation that logs ``tag`` and returns it."""
    return sys_nbio(lambda: (log.append(tag), tag)[1])


values = st.integers(-100, 100)


@given(x=values)
def test_left_identity(x):
    # return x >>= f  ==  f x
    log1, log2 = [], []
    f = lambda v, log: effectful(v * 2, log)
    from repro.core.scheduler import run_threads

    lhs = run_threads([pure(x).bind(lambda v: f(v, log1))])[0].result
    rhs = run_threads([f(x, log2)])[0].result
    assert lhs == rhs
    assert log1 == log2


@given(x=values)
def test_right_identity(x):
    # m >>= return  ==  m
    log1, log2 = [], []
    from repro.core.scheduler import run_threads

    lhs = run_threads([effectful(x, log1).bind(pure)])[0].result
    rhs = run_threads([effectful(x, log2)])[0].result
    assert lhs == rhs
    assert log1 == log2


@given(x=values, a=values, b=values)
def test_associativity(x, a, b):
    # (m >>= f) >>= g  ==  m >>= (\v -> f v >>= g)
    def make(log):
        m = effectful(x, log)
        f = lambda v: effectful(v + a, log)
        g = lambda v: effectful(v * b, log)
        return m, f, g

    from repro.core.scheduler import run_threads

    log1: list = []
    m, f, g = make(log1)
    lhs = run_threads([m.bind(f).bind(g)])[0].result

    log2: list = []
    m, f, g = make(log2)
    rhs = run_threads([m.bind(lambda v: f(v).bind(g))])[0].result

    assert lhs == rhs
    assert log1 == log2


@given(xs=st.lists(values, max_size=20))
def test_sequence_preserves_order_and_effects(xs):
    log: list = []
    from repro.core.scheduler import run_threads

    comp = sequence_m([effectful(x, log) for x in xs])
    result = run_threads([comp])[0].result
    assert result == xs
    assert log == xs


@given(n=st.integers(0, 50), x=values)
def test_replicate_counts(n, x):
    log: list = []
    from repro.core.scheduler import run_threads

    run_threads([replicateM_(n, effectful(x, log))])
    assert log == [x] * n
