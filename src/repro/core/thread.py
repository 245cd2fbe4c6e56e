"""Thread handles: spawn, join, and structured groups.

The paper's threads are fire-and-forget (``sys_fork``).  Real services also
need to wait for results, so this module adds a thin handle layer on top of
the scheduler's TCBs: ``spawn`` returns a :class:`ThreadHandle`, and
``handle.join()`` is a blocking system call that resumes with the thread's
result (rethrowing its exception, if it failed).

``spawn`` and ``join`` are library system calls (``sys_call``) — the same
extension mechanism application code can use, with nothing registered.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .monad import M, pure, sequence_m
from .scheduler import Scheduler, TCB
from .syscalls import sys_call
from .trace import Cont, SysThrow

__all__ = ["ThreadHandle", "spawn", "join_all", "ThreadGroup"]


class ThreadHandle:
    """A handle on a spawned monadic thread."""

    __slots__ = ("tcb",)

    def __init__(self, tcb: TCB) -> None:
        self.tcb = tcb

    @property
    def tid(self) -> int:
        """The thread id assigned by the scheduler."""
        return self.tcb.tid

    @property
    def name(self) -> str | None:
        """The optional thread name."""
        return self.tcb.name

    @property
    def finished(self) -> bool:
        """Whether the thread has completed (normally or with an error)."""
        return self.tcb.state in ("done", "failed")

    def join(self) -> M:
        """Block until the thread finishes; resume with its result.

        If the thread failed, its exception is rethrown in the joiner.
        """
        return sys_call(_join, self.tcb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ThreadHandle {self.tcb!r}>"


def spawn(comp: M | Callable[[], M], name: str | None = None) -> M:
    """Fork ``comp`` as a new thread; resume with its :class:`ThreadHandle`.

    Unlike :func:`repro.core.syscalls.sys_fork` (which resumes with
    ``None``), the handle supports ``join``.
    """
    return sys_call(_spawn, (comp, name))


def _spawn(sched: Scheduler, _tcb: TCB, arg: tuple, cont: Cont):
    comp, name = arg
    handle = ThreadHandle(sched.spawn(comp, name=name))
    return lambda: cont(handle)


def _join(_sched: Scheduler, tcb: TCB, target: TCB, cont: Cont):
    if target.state == "done":
        result = target.result
        return lambda: cont(result)
    if target.state == "failed":
        return SysThrow(target.error)
    if target.waiters is None:
        target.waiters = []
    target.waiters.append((tcb, cont))
    tcb.state = "blocked"
    return None


def join_all(handles: Iterable[ThreadHandle]) -> M:
    """Join every handle, collecting results in order."""
    return sequence_m([h.join() for h in handles])


class ThreadGroup:
    """Spawn a family of threads and wait for all of them.

    Example (inside a ``@do`` thread)::

        group = ThreadGroup()
        yield group.spawn(worker(1))
        yield group.spawn(worker(2))
        results = yield group.join()
    """

    def __init__(self) -> None:
        self.handles: list[ThreadHandle] = []

    def spawn(self, comp: M | Callable[[], M], name: str | None = None) -> M:
        """Spawn ``comp`` and record its handle; resume with the handle."""

        def record(handle: ThreadHandle) -> M:
            self.handles.append(handle)
            return pure(handle)

        return spawn(comp, name).bind(record)

    def join(self) -> M:
        """Wait for every spawned thread; resume with the list of results."""
        return join_all(self.handles)

    def __len__(self) -> int:
        return len(self.handles)
