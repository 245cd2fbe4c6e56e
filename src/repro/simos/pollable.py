"""Readiness plumbing shared by pipes, sockets, and the epoll device.

A :class:`Pollable` reports a readiness mask (``EVENT_READ``/``EVENT_WRITE``
bits) and holds one-shot waiters: ``(mask, callback)`` pairs fired — and
removed — when the object's state change makes any requested bit ready.
The epoll simulation and the kernel-thread baseline both build on this.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Pollable", "Waiter"]


class Waiter:
    """A one-shot readiness subscription."""

    __slots__ = ("mask", "callback", "active")

    def __init__(self, mask: int, callback: Callable[[int], None]) -> None:
        self.mask = mask
        self.callback = callback
        self.active = True

    def cancel(self) -> None:
        """Deactivate without firing (idempotent)."""
        self.active = False
        self.callback = None


class Pollable:
    """Base class managing readiness waiters."""

    def __init__(self) -> None:
        self._waiters: list[Waiter] = []

    def poll(self) -> int:
        """Current readiness mask; subclasses override."""
        raise NotImplementedError

    def add_waiter(self, mask: int, callback: Callable[[int], None]) -> Waiter:
        """Fire ``callback(ready_mask)`` once, when any bit of ``mask`` is
        ready.  Fires immediately (synchronously) if already ready."""
        ready = self.poll() & mask
        waiter = Waiter(mask, callback)
        if ready:
            waiter.active = False
            callback(ready)
            return waiter
        self._waiters.append(waiter)
        return waiter

    def notify(self) -> None:
        """Re-check readiness and fire matching waiters (one-shot)."""
        if not self._waiters:
            return
        ready = self.poll()
        if not ready:
            return
        pending = self._waiters
        keep: list[Waiter] = []
        fired: list[tuple[Waiter, int]] = []
        for waiter in pending:
            if not waiter.active:
                continue
            hit = ready & waiter.mask
            if hit:
                waiter.active = False
                fired.append((waiter, hit))
            else:
                keep.append(waiter)
        self._waiters = keep
        for waiter, hit in fired:
            callback = waiter.callback
            waiter.callback = None
            callback(hit)

    @property
    def waiter_count(self) -> int:
        """Number of live subscriptions (for tests and stats)."""
        return sum(1 for w in self._waiters if w.active)
