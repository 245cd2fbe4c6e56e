"""The trace algebra: run-time representation of thread execution.

A *trace* is the paper's central data structure (Li & Zdancewic, PLDI 2007,
Figure 5): a tree describing the sequence of system calls made by a monadic
thread.  Each system call in the multithreaded programming interface
corresponds to exactly one node type.  The scheduler is a tree-traversal
function over traces (Figure 11).

In Haskell the sub-traces are lazy: examining a node runs the thread up to
the system call that produces it.  Here we obtain the same one-step-at-a-time
behaviour from strict continuation-passing style: child positions hold
*thunks* (zero-argument callables returning the next :class:`Trace`), or
continuation functions from the system call's result to the next trace.
Forcing a thunk runs the thread's Python code exactly up to its next system
call, which constructs and returns the next node — precisely the stepping
depicted in the paper's Figure 3.

Only the scheduler (and scheduler extensions) ever inspect these nodes;
application threads construct them indirectly through the system calls in
:mod:`repro.core.syscalls`.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = [
    "Trace",
    "SysRet",
    "SysNBIO",
    "SysBlio",
    "SysFork",
    "SysYield",
    "SysThrow",
    "SysCatch",
    "SysEndCatch",
    "SysGen",
    "DoProtocolError",
    "SysEpollWait",
    "SysAioRead",
    "SysSleep",
    "SysNow",
    "SysCall",
    "Thunk",
    "Cont",
    "format_trace_node",
]

# A thunk forces the thread one step: it runs the thread's code up to the
# next system call and returns the node that call constructed.
Thunk = Callable[[], "Trace"]

# A continuation resumes the thread with the system call's result.
Cont = Callable[[Any], "Trace"]


class Trace:
    """Base class for every trace node.

    Nodes are plain records.  The scheduler gives each its meaning, in one
    of three ways: built-in control nodes (fork, yield, exceptions, ``@do``
    regions) it interprets itself; device nodes (epoll, blocking I/O, AIO,
    sleep, the clock) are interpreted by the handler a kernel registered
    for their type; and a :class:`SysCall` names the function that
    interprets it.  That is the paper's point — the scheduler is an
    ordinary, user-programmable event loop.
    """

    __slots__ = ()

    #: Short upper-case tag used in debug output; mirrors the constructor
    #: names of the paper's Haskell ``Trace`` datatype.
    TAG = "TRACE"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return format_trace_node(self)


class SysRet(Trace):
    """``SYS_RET`` — the thread (or a protected region) finished normally.

    The paper's ``SYS_RET`` is a bare leaf; we additionally carry the final
    value so that thread results can be observed by ``join`` and by
    ``sys_catch`` continuations.
    """

    __slots__ = ("value",)
    TAG = "SYS_RET"

    def __init__(self, value: Any = None) -> None:
        self.value = value


class SysNBIO(Trace):
    """``SYS_NBIO`` — perform a non-blocking I/O (effectful) action.

    The Haskell node's ``IO Trace`` payload is ``do x <- action; return
    (c x)``; here the scheduler composes the two itself — it runs
    ``action`` on the loop and feeds the result to ``cont`` — so issuing
    the call builds no closure.
    """

    __slots__ = ("action", "cont")
    TAG = "SYS_NBIO"

    def __init__(self, action: Callable[[], Any], cont: Cont) -> None:
        self.action = action
        self.cont = cont


class SysBlio(Trace):
    """``SYS_BLIO`` — perform a *blocking* I/O action on the blocking pool.

    Unlike ``SYS_NBIO``, the action and continuation stay separate: only
    ``action`` may run on a pool thread (paper §4.6); the continuation is
    resumed on the scheduler with the action's result.
    """

    __slots__ = ("action", "cont")
    TAG = "SYS_BLIO"

    def __init__(self, action: Callable[[], Any], cont: Cont) -> None:
        self.action = action
        self.cont = cont


class SysFork(Trace):
    """``SYS_FORK`` — spawn a child thread.

    Both fields are thunks for the first node of the respective execution:
    ``child`` for the new thread, ``cont`` for the parent's continuation.
    """

    __slots__ = ("child", "cont", "name")
    TAG = "SYS_FORK"

    def __init__(self, child: Thunk, cont: Thunk, name: str | None = None) -> None:
        self.child = child
        self.cont = cont
        self.name = name


class SysYield(Trace):
    """``SYS_YIELD`` — voluntarily switch to another thread."""

    __slots__ = ("cont",)
    TAG = "SYS_YIELD"

    def __init__(self, cont: Thunk) -> None:
        self.cont = cont


class SysThrow(Trace):
    """``SYS_THROW`` — raise an exception to the nearest handler frame."""

    __slots__ = ("exc",)
    TAG = "SYS_THROW"

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class SysCatch(Trace):
    """``SYS_CATCH`` — enter a protected region.

    The scheduler pushes ``(handler, cont)`` onto the thread's handler stack
    and forces ``body``.  ``handler`` maps the caught exception to the trace
    that continues the thread; by construction (see ``sys_catch``) that trace
    flows into ``cont`` when the handler completes normally.
    """

    __slots__ = ("body", "handler", "cont")
    TAG = "SYS_CATCH"

    def __init__(
        self,
        body: Thunk,
        handler: Callable[[BaseException], "Trace"],
        cont: Cont,
    ) -> None:
        self.body = body
        self.handler = handler
        self.cont = cont


class SysEndCatch(Trace):
    """Marks normal completion of a ``SYS_CATCH`` body.

    The paper reuses ``SYS_RET`` to pop handler frames; we use a dedicated
    node so protected regions can return values (``value`` is handed to the
    frame's continuation).  Semantics are otherwise identical.
    """

    __slots__ = ("value",)
    TAG = "SYS_END_CATCH"

    def __init__(self, value: Any) -> None:
        self.value = value


class DoProtocolError(TypeError):
    """A ``@do`` generator yielded something that is not a computation."""


class _Bounce(Trace):
    """Internal sentinel returned by a trampolined continuation.

    Never reaches the scheduler: it is produced only while a driving loop
    (``SysGen._drive`` or the slow-path ``_step``) is on the stack, which
    intercepts it immediately.
    """

    __slots__ = ()


_BOUNCE = _Bounce()

# ``M`` and its three subclasses the driver short-cuts (``Pure``,
# ``DoCall``, ``Nbio``), injected lazily on first drive (``monad`` imports
# this module, so importing them at top level would be circular).
_M_cls: type | None = None
_Pure: type | None = None
_DoCall: type | None = None
_Nbio: type | None = None


class SysGen(Trace):
    """``@do`` fast path: a protected region that *is* the live generator.

    A thread, a ``sys_fork``/``spawn`` body or a ``sys_catch`` body that is
    a ``@do`` call opens one region; one node plays three roles at once:

    * the **trace node** announcing region entry — the scheduler pushes it
      onto the thread's handler stack and drives it;
    * the **handler frame** — ``Scheduler._unwind`` delivers monadic
      exceptions straight into the innermost generator (``gen.throw``)
      while the region is live, and passes them through once it has
      finished;
    * the owner of the **reusable continuation** :attr:`k` — system calls
      store ``k`` in their nodes, and resuming it ``send()``s the result
      directly into the generator frame.

    A ``@do`` call yielded inside the region (a :class:`DoCall`) is driven
    inline, the way ``yield from`` drives a subgenerator: the caller is
    pushed onto :attr:`callers` and the callee becomes :attr:`gen`; the
    callee's return value, or its exception, pops back into the caller.
    So a nested call costs no trace node — as in the paper, where ``bind``
    is closure composition and a node is a system call — and the region
    costs one node on entry (``SysGen`` vs the slow path's ``SysCatch``),
    each suspension the suspended node itself, and ``SysEndCatch`` /
    ``SysThrow`` when the outermost generator ends.  The combinator path
    (``do_slow``) remains the reference implementation; differential tests
    pin the two together (the slow path pays two nodes per nested call).
    """

    __slots__ = (
        "gen",
        "callers",
        "cont",
        "finished",
        "k",
        "drive",
        "_active",
        "_sync",
        "_value",
        "_exc",
    )
    TAG = "SYS_GEN"

    def __init__(self, gen: Any, cont: Cont) -> None:
        self.gen = gen
        # Suspended callers of ``gen``, innermost last; created on the
        # first nested call.
        self.callers: list | None = None
        self.cont = cont
        self.finished = False
        self._active = False
        self._sync = False
        self._value: Any = None
        self._exc: BaseException | None = None
        # Prebound once so neither resuming nor re-driving allocates a
        # method object per step.
        self.k = self._resume
        self.drive = self._drive

    def _resume(self, value: Any) -> "Trace":
        """The region's continuation: feed ``value`` to the generator.

        Called synchronously by pure glue while :meth:`_drive` is on the
        stack (trampoline: latch the value, bounce) or asynchronously by
        the scheduler/device when the thread resumes (drive directly).
        """
        if self._active:
            self._sync = True
            self._value = value
            return _BOUNCE
        self._value = value
        self._exc = None
        return self._drive()

    def throw_in(self, exc: BaseException) -> None:
        """Arm ``exc`` for delivery into the innermost generator on the
        next drive."""
        self._value = None
        self._exc = exc

    def _drive(self) -> "Trace":
        """Advance the generator to its next real system call.

        Returns the next trace node.  Yields that complete synchronously
        are flattened by the bounce trampoline and nested calls by the
        :attr:`callers` stack, so both use constant Python stack.
        """
        global _M_cls, _Pure, _DoCall, _Nbio
        if _M_cls is None:
            from .do_notation import DoCall as _imported_call
            from .monad import M as _imported_m
            from .monad import Pure as _imported_pure
            from .syscalls import Nbio as _imported_nbio

            _M_cls, _Pure = _imported_m, _imported_pure
            _DoCall, _Nbio = _imported_call, _imported_nbio
        gen = self.gen
        callers = self.callers
        value, exc = self._value, self._exc
        self._value = self._exc = None
        while True:
            try:
                if exc is not None:
                    item = gen.throw(exc)
                else:
                    item = gen.send(value)
            except StopIteration as stop:
                if callers:
                    gen = self.gen = callers.pop()
                    value, exc = stop.value, None
                    continue
                self.finished = True
                return SysEndCatch(stop.value)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as raised:
                if callers:
                    gen = self.gen = callers.pop()
                    value, exc = None, raised
                    continue
                self.finished = True
                return SysThrow(raised)

            # The three synchronous fast paths, most frequent first: a
            # nested @do call runs in its caller's place, sys_nbio's node
            # is built here, and a pure value resumes the generator at
            # once.  None of them goes through ``item.run``.
            kind = type(item)
            if kind is _DoCall:
                # A nested @do call: suspend the caller and run the callee
                # in its place.  Creating the callee's generator can fail
                # (bad arity); that lands in the caller.
                try:
                    if item.kwargs is None:
                        callee = item.genfunc(*item.args)
                    else:
                        callee = item.genfunc(*item.args, **item.kwargs)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as raised:
                    value, exc = None, raised
                    continue
                if callers is None:
                    callers = self.callers = []
                callers.append(gen)
                gen = self.gen = callee
                value = exc = None
                continue

            if kind is _Nbio:
                return SysNBIO(item.action, self.k)

            if kind is _Pure:
                value, exc = item.value, None
                continue

            if not isinstance(item, _M_cls):
                error = DoProtocolError(
                    f"@do generator yielded {item!r}; expected a "
                    "computation (an M value, e.g. from a sys_* call)"
                )
                if callers:
                    gen = self.gen = callers.pop()
                    value, exc = None, error
                    continue
                self.finished = True
                return SysThrow(error)

            # Trampoline: if the computation calls ``k`` synchronously
            # (pure glue), latch the value and loop instead of recursing.
            # If it suspends (stores ``k`` in a trace node), ``k`` runs
            # later with ``_active`` off and re-enters the drive normally.
            self._active = True
            self._sync = False
            try:
                trace = item.run(self.k)
            except (KeyboardInterrupt, SystemExit):
                self._active = False
                raise
            except BaseException as raised:
                # The computation's own plumbing failed (e.g. a pure
                # function inside fmap raised): surface it inside the
                # generator so the user's try/except can see it.
                self._active = False
                value, exc = None, raised
                continue
            self._active = False
            if self._sync:
                value, exc = self._value, None
                self._value = None
                continue
            return trace


class SysEpollWait(Trace):
    """``SYS_EPOLL_WAIT`` — block until ``events`` fires on ``fd``.

    The continuation receives the set of ready events (paper Figure 15).
    """

    __slots__ = ("fd", "events", "cont")
    TAG = "SYS_EPOLL_WAIT"

    def __init__(self, fd: Any, events: int, cont: Cont) -> None:
        self.fd = fd
        self.events = events
        self.cont = cont


class SysAioRead(Trace):
    """``SYS_AIO_READ`` — submit an asynchronous disk read.

    The continuation receives the bytes read (paper: ``Int -> Trace``; we
    pass the data, the length is ``len``).
    """

    __slots__ = ("fd", "offset", "nbytes", "cont")
    TAG = "SYS_AIO_READ"

    def __init__(self, fd: Any, offset: int, nbytes: int, cont: Cont) -> None:
        self.fd = fd
        self.offset = offset
        self.nbytes = nbytes
        self.cont = cont


class SysSleep(Trace):
    """Block the thread for ``duration`` seconds (timer event loop)."""

    __slots__ = ("duration", "cont")
    TAG = "SYS_SLEEP"

    def __init__(self, duration: float, cont: Cont) -> None:
        self.duration = duration
        self.cont = cont


class SysNow(Trace):
    """Resume with the kernel's clock (virtual time on the simulator)."""

    __slots__ = ("cont",)
    TAG = "SYS_NOW"

    def __init__(self, cont: Cont) -> None:
        self.cont = cont


class SysCall(Trace):
    """A library system call that carries its own interpreter.

    The scheduler interprets the node by calling
    ``fn(sched, tcb, arg, cont)`` and treats the result as it treats any
    handler's: the thread's next step to run inline (a thunk such as
    ``lambda: cont(value)``, or a ready node such as a ``SysThrow``), or
    ``None`` when ``fn`` parked the thread somewhere that resumes it
    later.  Mutexes, MVars, channels, STM, ``spawn`` and ``join`` are
    all this node — the paper's "the programmer can define their own
    synchronization primitives as system calls" (§4.7), with nothing to
    register.  ``fn`` must not call ``cont`` itself: an exception raised
    by the continuation belongs to the thread, and only forcing the
    returned thunk delivers it there.
    """

    __slots__ = ("fn", "arg", "cont")
    TAG = "SYS_CALL"

    def __init__(self, fn: Callable[..., Any], arg: Any, cont: Cont) -> None:
        self.fn = fn
        self.arg = arg
        self.cont = cont


def format_trace_node(node: Trace) -> str:
    """Render a single node for debug output, e.g. ``<SYS_FORK child>``."""
    detail = ""
    if isinstance(node, SysRet):
        detail = f" value={node.value!r}"
    elif isinstance(node, SysEpollWait):
        detail = f" fd={node.fd!r} events={node.events!r}"
    elif isinstance(node, SysAioRead):
        detail = f" fd={node.fd!r} offset={node.offset}"
    elif isinstance(node, SysCall):
        detail = f" fn={getattr(node.fn, '__qualname__', node.fn)}"
    elif isinstance(node, SysGen):
        code = getattr(node.gen, "gi_code", None)
        if code is not None:
            detail = f" gen={code.co_qualname}"
    return f"<{type(node).TAG}{detail}>"
