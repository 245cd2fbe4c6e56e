"""Generator-based do-notation for the concurrency monad.

Haskell hides the monad's "internal plumbing" behind ``do``-syntax; Python's
natural equivalent is a generator.  A function decorated with :func:`do`
writes monadic threads in plain imperative style::

    @do
    def echo(conn):
        data = yield sock_recv(conn, 4096)     # data <- sock_recv conn 4096
        while data:
            yield sock_send(conn, data)        # sock_send conn data
            data = yield sock_recv(conn, 4096)
        return len(data)                       # return — the monadic result

Each ``yield`` runs a computation (an :class:`~repro.core.monad.M` value)
and resumes the generator with its result.  The translation is exactly the
paper's desugaring of ``do`` into ``>>=`` with the generator frame playing
the role of the chained closures — but with two Python-specific amenities:

* **Constant stack.**  Resuming the generator is O(1) in stack depth, and a
  bounce-trampoline flattens chains of yields that complete synchronously
  (e.g. ``yield pure(x)``), so million-iteration thread loops are safe.

* **Native exceptions.**  Monadic exceptions are delivered into the
  generator with ``generator.throw``, so ordinary ``try``/``except``/
  ``finally`` blocks work inside threads.  Symmetrically, exceptions raised
  by the generator become monadic throws, caught by enclosing ``sys_catch``
  frames (or enclosing ``@do`` callers' ``try`` blocks).

Two implementations share these semantics:

* The **fast path** (default): :func:`do` hands the scheduler the live
  generator in one :class:`~repro.core.trace.SysGen` node, and the
  scheduler ``send``/``throw``s results directly into the generator frame
  — no per-yield continuation closures or trampoline cells, no delegating
  wrapper generator.  The node doubles as the region's handler frame, and
  a ``@do`` call yielded inside the region runs inline on the region's
  stack of suspended callers: a nested call is a Python call and costs no
  trace node, so a node is a system call, as in the paper's trace.  A
  ``pure`` value and ``sys_nbio``'s node are read straight off their
  ``M`` objects (:class:`~repro.core.monad.Pure`,
  :class:`~repro.core.syscalls.Nbio`) instead of through ``run``.

* The **slow path** (:func:`do_slow`): the original closure-trampoline
  driver wrapping the generator in one ``SYS_CATCH`` region per call.  It
  is kept as the executable reference implementation; the differential
  tests in ``tests/core/test_do_fastpath_differential.py`` pin the two
  paths to identical observable behavior (results, exception order, side
  effects).  Node counts differ by one rule: a nested ``@do`` call costs
  the slow path two nodes (region entry and exit) and the fast path none.
"""

from __future__ import annotations

import functools
import sys
import types
from typing import Any, Callable, Generator

from .monad import M
from .trace import (
    _BOUNCE,
    DoProtocolError,
    SysCatch,
    SysEndCatch,
    SysGen,
    SysThrow,
    Trace,
)

__all__ = ["do", "do_slow", "DoCall", "DoProtocolError"]

#: Code objects of every ``@do``-driven generator function; used to target
#: the abandoned-thread noise filter below at exactly our generators.
_do_codes: set = set()


class DoCall(M):
    """A call of a ``@do`` function: the generator function and its
    arguments, not yet started.

    As an ``M`` it opens one region — :meth:`run` builds the
    :class:`~repro.core.trace.SysGen` that owns the generator.  Yielded
    inside a region, it is never run: ``SysGen._drive`` starts the callee
    in place of its caller, like ``yield from``.
    """

    __slots__ = ("genfunc", "args", "kwargs")

    def __init__(self, genfunc: Callable[..., Generator[M, Any, Any]],
                 args: tuple, kwargs: dict | None) -> None:
        self.genfunc = genfunc
        self.args = args
        #: ``None`` for a call without keyword arguments (the common
        #: case), so starting it is ``genfunc(*args)``, with no ``**{}``.
        self.kwargs = kwargs

    def run(self, c: Callable[[Any], Trace]) -> Trace:
        if self.kwargs is None:
            return SysGen(self.genfunc(*self.args), c)
        return SysGen(self.genfunc(*self.args, **self.kwargs), c)


def do(genfunc: Callable[..., Generator[M, Any, Any]]) -> Callable[..., M]:
    """Turn a generator function into a function returning a computation.

    The generator must yield :class:`M` values; its ``return`` value becomes
    the computation's result.  Calling the decorated function does not run
    any code: it returns a :class:`DoCall`, which starts when a scheduler
    forces its trace or when an enclosing ``@do`` generator yields it.
    """

    _do_codes.add(genfunc.__code__)

    @functools.wraps(genfunc)
    def make(*args: Any, **kwargs: Any) -> M:
        return DoCall(genfunc, args, kwargs or None)

    # Expose the original generator function for introspection/testing.
    make.__wrapped__ = genfunc
    return make


def do_slow(genfunc: Callable[..., Generator[M, Any, Any]]) -> Callable[..., M]:
    """Reference implementation of :func:`do`: the closure-trampoline driver.

    Semantically identical to :func:`do`, but drives the generator from
    outside the scheduler with a fresh continuation closure and trampoline
    cells per yield, inside one ``SYS_CATCH`` region.  Kept for the
    differential test suite and as executable documentation of the
    desugaring; production code should use :func:`do`.
    """

    _do_codes.add(genfunc.__code__)

    @functools.wraps(genfunc)
    def make(*args: Any, **kwargs: Any) -> M:
        def run(c: Callable[[Any], Trace]) -> Trace:
            return _gen_region(genfunc, args, kwargs, c)

        return M(run)

    make.__wrapped__ = genfunc
    return make


def _tolerant(user_gen: Generator[M, Any, Any]) -> Generator[M, Any, Any]:
    """Delegate to ``user_gen``, absorbing abandoned-cleanup noise.

    When a parked thread is abandoned (its runtime stops while the thread
    waits), the interpreter eventually closes its generator.  A ``finally:``
    block that yields a monadic cleanup action cannot run then — no
    scheduler is left to resume it — so the inner ``close`` raises
    ``RuntimeError("generator ignored GeneratorExit")``.  The semantics
    match GHC threads collected by the garbage collector: abandoned
    finalizers do not run.  That specific ``RuntimeError`` surfaces here at
    the ``yield from`` during our own ``close()``; swallowing it keeps the
    interpreter from printing "Exception ignored" noise, without masking
    any error a *running* thread could observe.
    """
    try:
        result = yield from user_gen
    except RuntimeError as err:
        if err.args == ("generator ignored GeneratorExit",):
            return None
        raise
    return result


def _gen_region(
    genfunc: Callable[..., Generator[M, Any, Any]],
    args: tuple,
    kwargs: dict,
    c: Callable[[Any], Trace],
) -> Trace:
    """Build the SYS_CATCH region that drives one generator instance."""
    gen = _tolerant(genfunc(*args, **kwargs))
    finished = [False]

    def handler(exc: BaseException) -> Trace:
        if finished[0]:
            # The generator already terminated; keep unwinding outward.
            return SysThrow(exc)
        # Re-arm the frame, then deliver the exception into the generator
        # so its try/except blocks can run.  If the generator does not
        # catch it, _step marks `finished` and rethrows; the re-armed frame
        # then forwards it outward through the branch above.
        return SysCatch(lambda: _step(gen, finished, None, exc), handler, c)

    return SysCatch(lambda: _step(gen, finished, None, None), handler, c)


def _step(
    gen: Generator[M, Any, Any],
    finished: list,
    value: Any,
    exc: BaseException | None,
) -> Trace:
    """Advance the generator until it suspends on a real system call.

    Returns the next trace node.  Yields that complete synchronously are
    flattened by the bounce trampoline, so consecutive pure steps use
    constant Python stack.
    """
    while True:
        try:
            if exc is not None:
                item = gen.throw(exc)
            else:
                item = gen.send(value)
        except StopIteration as stop:
            finished[0] = True
            return SysEndCatch(stop.value)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as raised:
            finished[0] = True
            return SysThrow(raised)

        if not isinstance(item, M):
            finished[0] = True
            return SysThrow(
                DoProtocolError(
                    f"@do generator yielded {item!r}; expected a computation "
                    "(an M value, e.g. from a sys_* call)"
                )
            )

        # Trampoline: if the computation calls its continuation
        # synchronously (pure glue), capture the value and loop instead of
        # recursing.  If it suspends (stores the continuation in a trace
        # node), the continuation will run later, when `active` is off, and
        # then it re-enters _step normally.
        active = [True]
        cell = [False, None]

        def k(v: Any, active: list = active, cell: list = cell) -> Trace:
            if active[0]:
                cell[0] = True
                cell[1] = v
                return _BOUNCE
            return _step(gen, finished, v, None)

        try:
            trace = item.run(k)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as raised:
            # The computation's own plumbing failed (e.g. a pure function
            # inside fmap raised): surface it inside the generator so the
            # user's try/except can see it.
            active[0] = False
            value, exc = None, raised
            continue

        active[0] = False
        if cell[0]:
            value, exc = cell[1], None
            continue
        return trace


# ----------------------------------------------------------------------
# Abandoned-thread noise suppression.
#
# The garbage collector may finalize an abandoned thread's user generator
# *before* its _tolerant wrapper, in which case the RuntimeError from a
# yield-in-finally is reported through sys.unraisablehook instead of being
# absorbed by the wrapper.  This filter drops exactly that report — a
# RuntimeError("generator ignored GeneratorExit") raised while finalizing a
# generator created by a @do function — and forwards everything else to the
# previously installed hook.
# ----------------------------------------------------------------------
_ABANDONED_ARGS = ("generator ignored GeneratorExit",)


def _is_do_generator(obj: Any) -> bool:
    return isinstance(obj, types.GeneratorType) and (
        obj.gi_code in _do_codes or obj.gi_code is _tolerant.__code__
    )


def _filter_unraisable(unraisable, _previous=sys.unraisablehook):
    if (
        isinstance(unraisable.exc_value, RuntimeError)
        and unraisable.exc_value.args == _ABANDONED_ARGS
        and _is_do_generator(unraisable.object)
    ):
        return
    _previous(unraisable)


sys.unraisablehook = _filter_unraisable
