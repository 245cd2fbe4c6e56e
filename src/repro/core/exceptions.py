"""Exception types used across the concurrency library."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "UncaughtThreadError",
    "DeadlockError",
    "ThreadKilled",
    "UnsupportedSyscallError",
]


class ReproError(Exception):
    """Base class for library errors."""


class UncaughtThreadError(ReproError):
    """A thread died with no handler frame left to catch its exception.

    Carries the original exception as ``__cause__`` and identifies the
    thread; raised out of the scheduler when the uncaught policy is
    ``"raise"``.
    """

    def __init__(self, tid: int, name: str | None, exc: BaseException) -> None:
        label = f"thread {tid}" + (f" ({name})" if name else "")
        super().__init__(f"uncaught exception in {label}: {exc!r}")
        self.tid = tid
        self.name = name
        self.exc = exc
        self.__cause__ = exc


class DeadlockError(ReproError):
    """No thread is runnable but blocked threads remain and no pending I/O
    or timer can wake them."""


class ThreadKilled(ReproError):
    """Delivered into a thread cancelled with ``Scheduler.kill``."""


class UnsupportedSyscallError(ReproError):
    """A trace node reached a scheduler with no handler registered for it
    (e.g. ``sys_epoll_wait`` on a bare scheduler with no I/O backend)."""
