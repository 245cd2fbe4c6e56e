"""The thread scheduler: an event loop traversing traces.

This generalizes the paper's Figure 11 ``worker_main``:

* a **ready queue** of thread control blocks (TCBs);
* a ``step`` that forces the next trace node of a thread and interprets it;
* **batched execution** — "a thread is executed for a large number of steps
  before switching to another thread to improve locality" (§4.2);
* per-thread **handler stacks** implementing ``SYS_CATCH``/``SYS_THROW``
  (§4.3) — pushed on catch, popped on return or throw;
* two extension hooks — the "programmable scheduler" of the hybrid model.
  A kernel **registers a handler per device node type**: epoll and AIO
  loops (§4.5), the blocking-I/O pool (§4.6), sleep and the clock.  A
  library system call needs no registration: a
  :class:`~repro.core.trace.SysCall` node names the function that
  interprets it, which is how synchronization (§4.7), STM,
  ``spawn``/``join`` and the TCP sockets (§4.8) are built.

The scheduler knows nothing about time or devices; the runtime
(:mod:`repro.runtime`) drives it and registers its device handlers.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Iterable

from .exceptions import ThreadKilled, UncaughtThreadError, UnsupportedSyscallError
from .monad import M, build_trace
from .trace import (
    SysBlio,
    SysCall,
    SysCatch,
    SysEndCatch,
    SysFork,
    SysGen,
    SysNBIO,
    SysRet,
    SysThrow,
    SysYield,
    Trace,
    Thunk,
)

__all__ = ["TCB", "Scheduler", "SyscallHandler", "STATES", "BATCH_LIMIT"]

#: The default fairness quantum: system calls a thread runs before the
#: scheduler switches.  A nested ``@do`` call costs no node, so a node is
#: a real system call; 16 lets one step cover several requests of a
#: keep-alive session without one connection holding the loop.
BATCH_LIMIT = 16

#: Thread lifecycle states.
STATES = ("ready", "running", "blocked", "done", "failed")

# A syscall handler receives (scheduler, tcb, node) and returns either the
# thread's next step to run inline — a thunk, or (since the generator fast
# path) a ready trace node directly — or None if it parked or requeued the
# thread itself.
SyscallHandler = Callable[["Scheduler", "TCB", Trace], "Thunk | Trace | None"]


class _Resume:
    """A reusable resume step: calling it applies ``fn`` to ``arg``.

    Replaces the per-resume ``lambda: cont(value)`` closures on the hot
    park/resume path — one small slotted object instead of a closure plus
    cells, and its fields remain introspectable when debugging a parked
    ready queue.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, fn: Callable[[Any], Trace], arg: Any) -> None:
        self.fn = fn
        self.arg = arg

    def __call__(self) -> Trace:
        return self.fn(self.arg)


class TCB:
    """Thread control block.

    Thread-local state is deliberately tiny — the paper's measurement point
    (§5.1) is that a parked thread is just its continuation plus an
    exception-handler stack.  Here that is: a trace thunk (held by whatever
    queue or device the thread is parked on), this record, and the handler
    stack.
    """

    __slots__ = (
        "tid",
        "name",
        "state",
        "catch_stack",
        "result",
        "error",
        "pending_kill",
        "syscall_count",
        "waiters",
    )

    def __init__(self, tid: int, name: str | None) -> None:
        self.tid = tid
        self.name = name
        self.state = "ready"
        # Handler frames: SysCatch regions and live @do generators (the
        # SysGen node doubles as its region's frame).
        self.catch_stack: list[SysCatch | SysGen] = []
        self.result: Any = None
        self.error: BaseException | None = None
        self.pending_kill: BaseException | None = None
        self.syscall_count = 0
        # Lazily created list of (tcb, cont) pairs joined on this thread.
        self.waiters: list | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"thread-{self.tid}"
        return f"<TCB {self.tid} {label!r} {self.state}>"


class Scheduler:
    """A round-robin, batched, extensible trace scheduler.

    Parameters
    ----------
    batch_limit:
        Maximum number of system calls a thread executes before the
        scheduler switches to the next ready thread.  ``1`` reproduces the
        naive round-robin of Figure 11; the default (:data:`BATCH_LIMIT`)
        batches for locality as §4.2 describes.  (Ablation A1 measures
        this choice.)
    uncaught:
        Policy for exceptions that unwind past the last handler frame:
        ``"raise"`` (default — abort ``run`` with
        :class:`UncaughtThreadError`), ``"store"`` (record on the TCB and in
        :attr:`uncaught_errors`), or a callable ``(tcb, exc) -> None``.
    """

    def __init__(
        self,
        batch_limit: int = BATCH_LIMIT,
        uncaught: str | Callable[[TCB, BaseException], None] = "raise",
    ) -> None:
        if batch_limit < 1:
            raise ValueError("batch_limit must be >= 1")
        self.batch_limit = batch_limit
        self.uncaught = uncaught
        # Entries are (tcb, step) where step is a thunk *or* a ready trace
        # node (devices resume errors by enqueueing the SysThrow directly).
        self.ready: deque[tuple[TCB, Thunk | Trace]] = deque()
        self.uncaught_errors: list[tuple[TCB, BaseException]] = []
        self._tids = itertools.count(1)
        self._exit_watchers: list[Callable[[TCB], None]] = []
        # Precomputed node-type -> bound interpreter dispatch.  Built-in
        # node types are installed here once; ``register_syscall`` adds a
        # kernel's device handlers.
        self._dispatch: dict[type, Callable[[TCB, Trace], Thunk | Trace | None]] = {
            SysGen: self._do_gen,
            SysNBIO: self._do_nbio,
            SysFork: self._do_fork,
            SysYield: self._do_yield,
            SysRet: self._do_ret,
            SysCatch: self._do_catch,
            SysEndCatch: self._do_endcatch,
            SysThrow: self._do_throw,
            SysCall: self._do_call,
        }
        self._builtin_types = frozenset(self._dispatch)
        #: Number of live (not finished) threads.
        self.live_threads = 0
        #: Total system calls processed (for instrumentation).
        self.total_syscalls = 0
        #: Total thread switches performed (batch boundaries).
        self.total_switches = 0
        #: Optional instrumentation hook, called per node: (tcb, node).
        self.on_syscall: Callable[[TCB, Trace], None] | None = None

    # ------------------------------------------------------------------
    # Device registry
    # ------------------------------------------------------------------
    def register_syscall(self, node_type: type, handler: SyscallHandler) -> None:
        """Install ``handler`` for trace nodes of the device type ``node_type``.

        The handler may: perform the operation and return the next trace
        (synchronous completion — the thread keeps running in its batch);
        park the thread by storing a resume thunk somewhere and return
        ``None``; or requeue via :meth:`resume` and return ``None``.
        Built-in node types keep their interpretation: registering one
        raises :class:`ValueError`.
        """
        if node_type in self._builtin_types:
            raise ValueError(f"{node_type.__name__} is interpreted by the scheduler")
        self._dispatch[node_type] = partial(handler, self)

    def add_exit_watcher(self, func: Callable[[TCB], None]) -> None:
        """Call ``func(tcb)`` whenever a thread finishes (done or failed)."""
        self._exit_watchers.append(func)

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def spawn(self, comp: M | Callable[[], M], name: str | None = None) -> TCB:
        """Create a thread running ``comp`` and place it on the ready queue."""
        tcb = self._new_tcb(name)

        def first() -> Trace:
            actual = comp() if callable(comp) and not isinstance(comp, M) else comp
            return build_trace(actual)

        self.ready.append((tcb, first))
        return tcb

    def _new_tcb(self, name: str | None) -> TCB:
        tcb = TCB(next(self._tids), name)
        self.live_threads += 1
        return tcb

    def resume(self, tcb: TCB, thunk: Thunk | Trace) -> None:
        """Make a parked thread runnable again (used by device loops).

        ``thunk`` forces the thread's next trace node — typically the
        node's stored continuation applied to the operation's result — or
        is that node itself (a ready ``Trace`` is accepted directly).
        """
        tcb.state = "ready"
        self.ready.append((tcb, thunk))

    def resume_value(self, tcb: TCB, cont: Callable[[Any], Trace], value: Any) -> None:
        """Convenience: resume ``tcb`` by applying ``cont`` to ``value``."""
        self.resume(tcb, _Resume(cont, value))

    def resume_error(self, tcb: TCB, exc: BaseException) -> None:
        """Resume ``tcb`` by delivering ``exc`` as a monadic throw."""
        self.resume(tcb, SysThrow(exc))

    def kill(self, tcb: TCB, exc: BaseException | None = None) -> None:
        """Request cancellation of ``tcb``.

        The exception (default :class:`ThreadKilled`) is delivered at the
        thread's next scheduling point; a thread parked on a device receives
        it when that device resumes it.  (Cooperative cancellation — the
        paper's model has no asynchronous interrupts either.)
        """
        if tcb.state in ("done", "failed"):
            return
        tcb.pending_kill = exc if exc is not None else ThreadKilled(
            f"thread {tcb.tid} killed"
        )

    # ------------------------------------------------------------------
    # The event loop (worker_main)
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run one thread for up to ``batch_limit`` system calls.

        Returns ``False`` when the ready queue is empty.
        """
        if not self.ready:
            return False
        tcb, thunk = self.ready.popleft()
        self.total_switches += 1
        self.run_batch(tcb, thunk)
        return True

    def run_batch(self, tcb: TCB, thunk: Thunk | Trace) -> None:
        """Force and interpret trace nodes for one thread until it blocks,
        yields, finishes, or exhausts its batch.

        ``thunk`` (and each inline continuation) is either a zero-argument
        callable forcing the next node, or a ready :class:`Trace` node.
        Counters accumulate in locals and flush once per batch; the
        ``on_syscall`` hook is consulted once and skipped entirely when not
        installed — per-node instrumentation costs nothing unless used.
        """
        tcb.state = "running"
        budget = self.batch_limit
        dispatch = self._dispatch
        hook = self.on_syscall
        count = 0
        try:
            while True:
                if tcb.pending_kill is not None:
                    exc = tcb.pending_kill
                    tcb.pending_kill = None
                    node = SysThrow(exc)
                elif isinstance(thunk, Trace):
                    node = thunk
                else:
                    try:
                        node = thunk()
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as raised:
                        # A raw Python exception escaped the thread's code
                        # outside any @do frame; convert it to a monadic
                        # throw.
                        node = SysThrow(raised)

                count += 1
                if hook is not None:
                    hook(tcb, node)

                fn = dispatch.get(type(node))
                if fn is not None:
                    nxt = fn(tcb, node)
                else:
                    nxt = self._interpret_extension(tcb, node)
                if nxt is None:
                    return
                budget -= 1
                if budget <= 0:
                    # Batch exhausted: requeue and switch (still ready).
                    tcb.state = "ready"
                    self.ready.append((tcb, nxt))
                    return
                thunk = nxt
        finally:
            tcb.syscall_count += count
            self.total_syscalls += count

    def run(self) -> None:
        """Run until no thread is ready (parked threads may remain)."""
        while self.step():
            pass

    def run_all(self) -> None:
        """Run until no *live* thread remains.

        Raises :class:`DeadlockError` if threads are parked with nothing to
        wake them.  Only valid on a bare scheduler (no device loops); the
        runtime has its own driver.
        """
        from .exceptions import DeadlockError

        self.run()
        if self.live_threads > 0:
            raise DeadlockError(
                f"{self.live_threads} thread(s) blocked with no ready work"
            )

    # ------------------------------------------------------------------
    # Node interpretation
    # ------------------------------------------------------------------
    def _do_gen(self, tcb: TCB, node: SysGen) -> Trace:
        # Enter (or re-enter, after an unwind re-armed it) a @do region:
        # the node itself is the handler frame, and driving it runs the
        # generator up to its next real system call.
        tcb.catch_stack.append(node)
        return node.drive()

    def _do_nbio(self, tcb: TCB, node: SysNBIO) -> Trace:
        # Figure 11: perform the I/O action and continue the thread with
        # its result; a failure in either is a monadic throw.
        try:
            return node.cont(node.action())
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as raised:
            return SysThrow(raised)

    def _do_fork(self, tcb: TCB, node: SysFork) -> Thunk:
        child = self._new_tcb(node.name)
        self.ready.append((child, node.child))
        return node.cont

    def _do_yield(self, tcb: TCB, node: SysYield) -> None:
        tcb.state = "ready"
        self.ready.append((tcb, node.cont))
        return None

    def _do_ret(self, tcb: TCB, node: SysRet) -> None:
        self._finish(tcb, node.value, None)
        return None

    def _do_catch(self, tcb: TCB, node: SysCatch) -> Thunk:
        tcb.catch_stack.append(node)
        return node.body

    def _do_endcatch(self, tcb: TCB, node: SysEndCatch) -> Trace:
        # Normal completion of a protected region (sys_catch or a @do
        # generator): pop the frame and continue with the region's value.
        frame = tcb.catch_stack.pop()
        try:
            return frame.cont(node.value)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as raised:
            return SysThrow(raised)

    def _do_throw(self, tcb: TCB, node: SysThrow) -> Thunk | Trace | None:
        return self._unwind(tcb, node.exc)

    def _do_call(self, tcb: TCB, node: SysCall) -> Thunk | Trace | None:
        # A library system call carries its own interpreter.
        return node.fn(self, tcb, node.arg, node.cont)

    def _interpret_extension(self, tcb: TCB, node: Trace) -> Thunk | Trace | None:
        """Dispatch-table miss: a device node no kernel registered."""
        if type(node) is SysBlio:
            # With no blocking pool wired (bare scheduler / tests), run
            # the action inline like SYS_NBIO.
            try:
                return node.cont(node.action())
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as raised:
                return SysThrow(raised)
        return SysThrow(
            UnsupportedSyscallError(f"no handler registered for {node.TAG}")
        )

    def _unwind(self, tcb: TCB, exc: BaseException) -> Thunk | Trace | None:
        """Pop one handler frame and run its handler, or finish the thread.

        A live :class:`SysGen` frame routes the exception into its
        innermost generator (so ``try``/``except``/``finally`` inside
        ``@do`` run, callee first, then each caller it escapes into):
        the exception is armed on the node and the node itself is returned,
        re-entering :meth:`_do_gen` which re-pushes the frame and drives —
        mirroring the slow path's re-armed ``SysCatch``, at the same node
        count.  A finished ``SysGen`` frame passes the exception through.
        """
        if tcb.catch_stack:
            frame = tcb.catch_stack.pop()
            if type(frame) is SysGen:
                if frame.finished:
                    return SysThrow(exc)
                frame.throw_in(exc)
                return frame
            return _Resume(frame.handler, exc)
        self._finish(tcb, None, exc)
        return None

    def _finish(
        self, tcb: TCB, value: Any, exc: BaseException | None
    ) -> None:
        tcb.state = "done" if exc is None else "failed"
        tcb.result = value
        tcb.error = exc
        self.live_threads -= 1
        had_waiters = bool(tcb.waiters)
        if tcb.waiters:
            waiters, tcb.waiters = tcb.waiters, None
            for waiter, cont in waiters:
                if exc is None:
                    self.resume_value(waiter, cont, value)
                else:
                    self.resume_error(waiter, exc)
        for watcher in self._exit_watchers:
            watcher(tcb)
        if exc is not None and not had_waiters:
            # Errors observed by a joiner are that joiner's responsibility;
            # otherwise apply the uncaught policy.
            self._report_uncaught(tcb, exc)

    def _report_uncaught(self, tcb: TCB, exc: BaseException) -> None:
        if callable(self.uncaught):
            self.uncaught(tcb, exc)
            return
        if self.uncaught == "store":
            self.uncaught_errors.append((tcb, exc))
            return
        raise UncaughtThreadError(tcb.tid, tcb.name, exc)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """A snapshot of scheduler counters (for tests and benchmarks)."""
        return {
            "ready": len(self.ready),
            "live_threads": self.live_threads,
            "total_syscalls": self.total_syscalls,
            "total_switches": self.total_switches,
        }


def run_threads(
    comps: Iterable[M],
    batch_limit: int = BATCH_LIMIT,
    uncaught: str | Callable[[TCB, BaseException], None] = "raise",
) -> list[TCB]:
    """Convenience: run computations to completion on a fresh scheduler.

    Only suitable for programs that use no device syscalls (pure thread
    control, nbio, exceptions, the sync, STM and join system calls).
    Returns the TCBs in spawn order.
    """
    sched = Scheduler(batch_limit=batch_limit, uncaught=uncaught)
    tcbs = [sched.spawn(comp) for comp in comps]
    sched.run_all()
    return tcbs


__all__.append("run_threads")
