"""The CPS concurrency monad.

This is the paper's Figure 7 transliterated to Python:

.. code-block:: haskell

    newtype M a = M ((a -> Trace) -> Trace)
    instance Monad M where
        return x  = M (\\c -> c x)
        (M g)>>=f = M (\\c -> g (\\a -> let M h = f a in h c))

A computation of type ``M a`` is a function that, given a continuation from
the result ``a`` to the rest of the thread's trace, produces the thread's
trace.  ``build_trace`` (Figure 8) closes a computation with the final
continuation ``SysRet`` so the scheduler can traverse it.

Programs are normally written with the generator do-notation in
:mod:`repro.core.do_notation`; the combinators here are the primitive layer
underneath (and remain convenient for small glue computations).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence, TypeVar

from .trace import _BOUNCE, SysRet, Trace

__all__ = [
    "M",
    "Pure",
    "pure",
    "unit",
    "bind",
    "then",
    "fmap",
    "ap",
    "join_m",
    "sequence_m",
    "sequence_",
    "mapM",
    "mapM_",
    "for_each",
    "replicateM",
    "replicateM_",
    "when",
    "unless",
    "foldM",
    "build_trace",
    "run_pure",
    "NotPureError",
]

A = TypeVar("A")
B = TypeVar("B")


class M:
    """A monadic computation: ``run`` maps a continuation to a trace.

    ``M`` values are first-class: they can be stored, passed around, and
    handed to ``sys_fork``/``spawn`` — this is the control inversion the
    hybrid model needs (threads-as-values callable as event handlers).
    """

    __slots__ = ("run",)

    def __init__(self, run: Callable[[Callable[[Any], Trace]], Trace]) -> None:
        self.run = run

    def bind(self, f: Callable[[Any], "M"]) -> "M":
        """Sequential composition: run ``self``, feed its result to ``f``."""
        g = self.run
        return M(lambda c: g(lambda a: f(a).run(c)))

    def then(self, mb: "M") -> "M":
        """Sequence, discarding the first result (Haskell's ``>>``)."""
        g = self.run
        return M(lambda c: g(lambda _a: mb.run(c)))

    def fmap(self, f: Callable[[Any], Any]) -> "M":
        """Apply a pure function to the result (Functor ``fmap``)."""
        g = self.run
        return M(lambda c: g(lambda a: c(f(a))))

    def __rshift__(self, mb: "M") -> "M":
        """``ma >> mb`` sequences two computations, like Haskell ``>>``."""
        return self.then(mb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<M>"


class Pure(M):
    """``pure(x)``: the computation that resumes at once with ``value``.

    A subclass so the ``@do`` driver can read ``value`` directly instead
    of bouncing through :meth:`run`; every other consumer (``bind``,
    ``sequence_m``, ``do_slow``) treats it as any ``M``.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def run(self, c: Callable[[Any], Trace]) -> Trace:
        return c(self.value)


#: ``unit`` is ``pure(None)`` — the do-nothing computation.  It is a shared
#: constant so the very common ``pure(None)``/``pure()`` allocates nothing.
unit = Pure(None)


def pure(x: Any = None) -> M:
    """Lift a value into the monad (Haskell ``return``)."""
    if x is None:
        return unit
    return Pure(x)


def bind(ma: M, f: Callable[[Any], M]) -> M:
    """Free-function form of :meth:`M.bind`."""
    return ma.bind(f)


def then(ma: M, mb: M) -> M:
    """Free-function form of :meth:`M.then`."""
    return ma.then(mb)


def fmap(f: Callable[[Any], Any], ma: M) -> M:
    """Free-function form of :meth:`M.fmap` (argument order as in Haskell)."""
    return ma.fmap(f)


def ap(mf: M, ma: M) -> M:
    """Applicative ``<*>``: apply a monadic function to a monadic value."""
    return mf.bind(lambda f: ma.fmap(f))


def join_m(mma: M) -> M:
    """Collapse ``M (M a)`` to ``M a`` (monadic ``join``)."""
    return mma.bind(lambda ma: ma)


def sequence_m(actions: Sequence[M]) -> M:
    """Run computations left to right, collecting their results in a list.

    Results accumulate by appending to one list — O(n) total, unlike the
    textbook right fold of ``bind``/``fmap`` whose per-element
    ``[x] + xs`` cons copies the accumulator each step (O(n²) for
    ``mapM``/``replicateM``).  Actions that complete synchronously are
    flattened by the same bounce trampoline the ``@do`` driver uses, so
    long sequences of pure steps use constant Python stack.
    """
    acts = list(actions)
    n = len(acts)

    def run(c: Callable[[Any], Trace]) -> Trace:
        results: list = []
        # state = [active, completed_sync]; see SysGen._drive for the
        # trampoline discipline.
        state = [False, False]

        def k(value: Any) -> Trace:
            if state[0]:
                state[1] = True
                results.append(value)
                return _BOUNCE
            # Asynchronous resume (the action suspended): record the
            # result and drive the remaining actions.
            results.append(value)
            return drive()

        def drive() -> Trace:
            while len(results) < n:
                state[0] = True
                state[1] = False
                trace = acts[len(results)].run(k)
                state[0] = False
                if state[1]:
                    continue
                return trace
            return c(results)

        return drive()

    return M(run)


def sequence_(actions: Iterable[M]) -> M:
    """Run computations left to right, discarding results."""
    result = unit
    chain = list(actions)
    for action in reversed(chain):
        result = action.then(result)
    return result


def mapM(f: Callable[[Any], M], xs: Iterable[Any]) -> M:
    """Map ``f`` over ``xs`` and sequence the results (collecting a list)."""
    return sequence_m([f(x) for x in xs])


def mapM_(f: Callable[[Any], M], xs: Iterable[Any]) -> M:
    """Map ``f`` over ``xs`` and sequence, discarding results."""
    return sequence_([f(x) for x in xs])


def for_each(xs: Iterable[Any], f: Callable[[Any], M]) -> M:
    """``forM_``: like :func:`mapM_` with the arguments flipped."""
    return mapM_(f, xs)


def replicateM(n: int, action: M) -> M:
    """Run ``action`` ``n`` times, collecting the results."""
    return sequence_m([action] * n)


def replicateM_(n: int, action: M) -> M:
    """Run ``action`` ``n`` times, discarding the results."""
    return sequence_([action] * n)


def when(condition: bool, action: M) -> M:
    """Run ``action`` only when ``condition`` holds."""
    return action if condition else unit


def unless(condition: bool, action: M) -> M:
    """Run ``action`` only when ``condition`` does not hold."""
    return unit if condition else action


def foldM(f: Callable[[Any, Any], M], acc: Any, xs: Iterable[Any]) -> M:
    """Monadic left fold: ``acc <- f acc x`` for each ``x``."""
    items = list(xs)

    def step(i: int, acc_value: Any) -> M:
        if i == len(items):
            return pure(acc_value)
        return f(acc_value, items[i]).bind(lambda nxt: step(i + 1, nxt))

    return step(0, acc)


def build_trace(ma: M, final: Callable[[Any], Trace] | None = None) -> Trace:
    """Convert a monadic computation into its trace (paper Figure 8).

    The default final continuation produces ``SysRet`` carrying the
    computation's result.  The scheduler's ``spawn`` uses this to turn a
    computation into a runnable thread.
    """
    if final is None:
        final = SysRet
    return ma.run(final)


class NotPureError(RuntimeError):
    """Raised by :func:`run_pure` when the computation performs a syscall."""


def run_pure(ma: M) -> Any:
    """Run a computation that makes *no* system calls and return its result.

    Useful in tests and for pure monadic glue.  Any attempt to suspend (any
    node other than the final ``SysRet``) raises :class:`NotPureError`.
    """
    trace = build_trace(ma)
    if isinstance(trace, SysRet):
        return trace.value
    raise NotPureError(
        f"computation performed a system call: {trace!r}; "
        "run it on a Scheduler instead"
    )
