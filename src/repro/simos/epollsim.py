"""The epoll readiness-notification device.

Monadic threads block with ``sys_epoll_wait fd event``; the scheduler
registers the continuation with this device; when the fd becomes ready the
event is queued and a harvest callback (the runtime's ``worker_epoll`` loop,
paper Figure 16) collects ``(token, ready_mask)`` pairs in batches.

Cost model (charged by the runtime, constants in ``SimParams``): one
``t_epoll_register`` per registration, one ``t_epoll_wait`` per harvest call
plus ``t_epoll_event`` per returned event — O(ready), *not* O(interested),
which is exactly why idle connections are free (Figure 18).
"""

from __future__ import annotations

from typing import Any

from .pollable import Pollable, Waiter

__all__ = ["EpollSim"]


class EpollSim:
    """Collects readiness events from pollables for batch harvesting."""

    def __init__(self) -> None:
        #: Ready (token, mask) pairs awaiting harvest.
        self._ready: list[tuple[Any, int]] = []
        #: Total registrations ever made (stats).
        self.registrations = 0
        #: Total events delivered through harvest (stats).
        self.events_delivered = 0
        self._live_waiters = 0

    def register(self, pollable: Pollable, mask: int, token: Any) -> Waiter:
        """One-shot interest: when ``mask`` fires on ``pollable``, queue
        ``(token, ready_mask)`` for the next harvest."""
        self.registrations += 1
        self._live_waiters += 1

        def deliver(ready_mask: int) -> None:
            self._live_waiters -= 1
            self._ready.append((token, ready_mask))

        return pollable.add_waiter(mask, deliver)

    def harvest(self) -> list[tuple[Any, int]]:
        """Collect pending events (like ``epoll_wait`` with timeout 0)."""
        batch, self._ready = self._ready, []
        self.events_delivered += len(batch)
        return batch

    @property
    def pending_events(self) -> int:
        """Events queued and not yet harvested."""
        return len(self._ready)

    @property
    def interested(self) -> int:
        """Live registrations not yet fired (idle connections, typically)."""
        return self._live_waiters
