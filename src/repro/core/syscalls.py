"""System calls: the multithreaded programming interface.

Following the paper (§3.1), "system calls" are the thread operations visible
to monadic threads: thread control (``sys_fork``, ``sys_yield``, ``sys_ret``),
effectful I/O (``sys_nbio``, ``sys_blio``), asynchronous I/O
(``sys_epoll_wait``, ``sys_aio_read``, ...), exceptions (``sys_throw``,
``sys_catch``), the clock (``sys_now``), and ``sys_call``, the library
system call that carries its own interpreter — synchronization (§4.7),
STM, ``spawn``/``join`` and the application-level TCP sockets (§4.8) are
built on it.

Each system call is a monadic operation that creates exactly one trace node,
filling the node's continuation fields with the current continuation —
Figure 9 of the paper, transliterated:

.. code-block:: haskell

    sys_nbio f  = M(\\c -> SYS_NBIO (do x <- f; return (c x)))
    sys_fork f  = M(\\c -> SYS_FORK (build_trace f) (c ()))
    sys_yield   = M(\\c -> SYS_YIELD (c ()))
    sys_ret     = M(\\c -> SYS_RET)
"""

from __future__ import annotations

from typing import Any, Callable

from .monad import M, Pure, build_trace
from .trace import (
    SysAioRead,
    SysBlio,
    SysCatch,
    SysEndCatch,
    SysEpollWait,
    SysCall,
    SysFork,
    SysNBIO,
    SysNow,
    SysRet,
    SysSleep,
    SysThrow,
    SysYield,
    Trace,
)

__all__ = [
    "sys_nbio",
    "sys_blio",
    "sys_fork",
    "sys_yield",
    "sys_ret",
    "sys_throw",
    "sys_catch",
    "sys_finally",
    "sys_epoll_wait",
    "sys_aio_read",
    "sys_sleep",
    "sys_call",
    "sys_get_tid",
    "sys_now",
]


class Nbio(M):
    """``sys_nbio(action)``: one ``SysNBIO(action, cont)`` node.

    A subclass rather than a closure, so a call allocates one object
    and the ``@do`` driver builds the node straight from :attr:`action`.
    """

    __slots__ = ("action",)

    def __init__(self, action: Callable[[], Any]) -> None:
        self.action = action

    def run(self, c: Callable[[Any], Trace]) -> Trace:
        return SysNBIO(self.action, c)


def sys_nbio(action: Callable[[], Any]) -> M:
    """Perform a non-blocking, effectful action in the scheduler.

    ``action`` runs inside the event loop (paper Figure 11, ``SYS_NBIO``
    case), so it must not block: blocking here stalls every thread served by
    the loop.  Use :func:`sys_blio` for potentially blocking operations.
    The thread resumes with ``action``'s return value.
    """
    return Nbio(action)


def sys_blio(action: Callable[[], Any]) -> M:
    """Perform a *blocking* action on the blocking-I/O thread pool (§4.6).

    The scheduler forwards the request to a dedicated queue serviced by OS
    threads, so event loops never stall.  The thread resumes with the
    action's return value.
    """

    return M(lambda c: SysBlio(action, c))


def sys_fork(child: M | Callable[[], M], name: str | None = None) -> M:
    """Create a new thread running ``child``; the parent continues.

    ``child`` may be a computation or a zero-argument function producing one
    (evaluated lazily when the child is first scheduled).  Resumes with
    ``None``; use :func:`repro.core.thread.spawn` for a join handle.
    """

    def child_trace() -> Trace:
        comp = child() if callable(child) and not isinstance(child, M) else child
        return build_trace(comp)

    def run(c: Callable[[Any], Trace]) -> Trace:
        return SysFork(child_trace, lambda: c(None), name)

    return M(run)


# sys_yield takes no arguments, so the computation is one shared constant:
# every call returns the same immutable M, whose ``run`` builds a fresh
# SysYield node per subscription.  Yield-heavy loops allocate one node and
# one continuation thunk per switch, nothing else.
_YIELD_M = M(lambda c: SysYield(lambda: c(None)))


def sys_yield() -> M:
    """Switch to another ready thread (cooperative preemption point)."""
    return _YIELD_M


def sys_ret(value: Any = None) -> M:
    """Terminate the current thread immediately with ``value``.

    The current continuation is discarded — like the paper's ``sys_ret``,
    this ends the whole thread, not just the enclosing function.
    """
    return M(lambda _c: SysRet(value))


def sys_throw(exc: BaseException) -> M:
    """Raise ``exc`` to the nearest enclosing ``sys_catch`` frame.

    Inside :func:`repro.core.do_notation.do` threads, a plain Python
    ``raise`` has the same effect; ``sys_throw`` is the primitive form.
    """
    return M(lambda _c: SysThrow(exc))


def sys_catch(body: M, handler: Callable[[BaseException], M]) -> M:
    """Run ``body`` with ``handler`` installed for monadic exceptions.

    Semantics follow §4.3: the scheduler pushes a handler frame; normal
    completion of ``body`` pops it and continues with ``body``'s value; a
    throw pops it and runs ``handler exc``, whose own completion continues
    at the same point.  Exceptions raised by the handler propagate outward.
    """

    def run(c: Callable[[Any], Trace]) -> Trace:
        def body_trace() -> Trace:
            return body.run(SysEndCatch)

        def handler_trace(exc: BaseException) -> Trace:
            return handler(exc).run(c)

        return SysCatch(body_trace, handler_trace, c)

    return M(run)


def sys_finally(body: M, finalizer: M) -> M:
    """Run ``body``; run ``finalizer`` whether it returns or throws.

    Built from ``sys_catch`` exactly the way Figure 13's ``send_file``
    closes its file descriptor on both paths.
    """

    def reraise(exc: BaseException) -> M:
        return finalizer.then(sys_throw(exc))

    return sys_catch(body, reraise).bind(
        lambda value: finalizer.then(Pure(value))
    )


def sys_epoll_wait(fd: Any, events: int) -> M:
    """Block until one of ``events`` fires on ``fd``; resume with the ready
    event mask (paper Figure 15)."""
    return M(lambda c: SysEpollWait(fd, events, c))


def sys_aio_read(fd: Any, offset: int, nbytes: int) -> M:
    """Submit an asynchronous read; resume with the bytes read (possibly
    shorter than ``nbytes`` at end of file, empty at EOF)."""
    return M(lambda c: SysAioRead(fd, offset, nbytes, c))


def sys_sleep(duration: float) -> M:
    """Block the thread for ``duration`` seconds of (virtual or real) time."""
    return M(lambda c: SysSleep(duration, c))


def sys_call(fn: Callable[..., Any], arg: Any = None) -> M:
    """A library system call interpreted by ``fn(sched, tcb, arg, cont)``.

    ``fn`` returns the thread's next step — a thunk such as
    ``lambda: cont(value)``, or a ready node such as a ``SysThrow`` — or
    parks the thread where something will resume it and returns ``None``
    (see :class:`~repro.core.trace.SysCall`).  The primitives of
    :mod:`repro.core.sync`, :mod:`repro.core.stm`,
    :mod:`repro.core.thread` and :mod:`repro.tcp.socket_api` are all
    built this way.
    """
    return M(lambda c: SysCall(fn, arg, c))


def _get_tid(_sched: Any, tcb: Any, _arg: Any, cont: Callable[[Any], Trace]):
    tid = tcb.tid
    return lambda: cont(tid)


def sys_get_tid() -> M:
    """Resume with the current thread's id."""
    return sys_call(_get_tid)


def sys_now() -> M:
    """Resume with the current time in seconds.

    Under the simulated runtime this is virtual time; under the live backend
    it is the OS monotonic clock.  A bare scheduler has no clock: there the
    call throws :class:`~repro.core.exceptions.UnsupportedSyscallError`.
    """
    return M(SysNow)
