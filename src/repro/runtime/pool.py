"""A bounded, health-checked, lease-based connection pool.

The outbound mirror of the accept path: where the server side admits at
most ``max_connections`` inbound clients, the pool holds at most ``size``
outbound connections to one upstream and *leases* them to monadic
threads.  ``acquire`` resumes with a :class:`PooledConn` immediately when
an idle connection or a free slot exists; otherwise the caller parks on a
FIFO waiter queue until a lease is released (direct handoff) or its lease
timeout fires.  All timing — lease timeouts, connect watchdogs, idle
reaping, dead-upstream re-probes — rides the shared
:class:`~repro.runtime.timer_wheel.TimerWheel`: scheduling a timeout is a
heap push, never a thread, so a pool under churn forks zero timer
threads (the bench gate asserts this the same way it does for mesh
calls).

Failure surfacing follows the mesh's idiom — timeouts and dead upstreams
are ordinary monadic exceptions:

* :class:`PoolTimeout` — no lease within the timeout, or a connect that
  outlived its watchdog (the watchdog *closes the in-progress socket*,
  which wakes the parked dialer with ``ConnectionClosed`` — the same
  close-to-wake trick the mesh wedge watchdog uses).
* :class:`UpstreamDown` — a dial failed.  The pool latches ``down``,
  evicts every idle connection, fails parked waiters fast, and arms a
  periodic re-probe on the wheel; the first successful probe readmits
  the upstream and subsequent ``acquire`` calls dial normally.
* :class:`PoolClosed` — terminal.

Waiter handoff is race-free by construction: each parked waiter owns a
one-shot state field (``waiting`` → ``handed`` | ``dead``) and exactly
one party — releaser, timeout action, or down/close broadcast — wins the
transition in plain code (atomic between yields under the cooperative
scheduler) before filling the waiter's MVar.  A lease freed by a
*discarded* connection hands the waiter a dial ticket (with the slot
reserved) instead of a socket, so waiters never inherit a connection the
releaser judged broken.
"""

from __future__ import annotations

import os
import socket
from collections import deque
from typing import Any

from ..core.do_notation import do
from ..core.events import EVENT_WRITE
from ..core.exceptions import ReproError
from ..core.sync import MVar
from ..core.syscalls import sys_epoll_wait, sys_now

__all__ = [
    "ConnectionPool",
    "PooledConn",
    "PoolError",
    "PoolTimeout",
    "PoolClosed",
    "UpstreamDown",
]


class PoolError(ReproError):
    """Base class for pool failures (all are ordinary monadic errors)."""


class PoolTimeout(PoolError):
    """No lease (or no connection) within the allotted timeout."""


class PoolClosed(PoolError):
    """The pool was closed; no further leases will be granted."""


class UpstreamDown(PoolError):
    """The upstream refused or dropped connections; the pool is latched
    down until a background re-probe succeeds."""


class _Sentinel:
    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label}>"


_TIMED_OUT = _Sentinel("pool-timed-out")
_DIAL = _Sentinel("pool-dial-ticket")


class PooledConn:
    """One pooled connection, currently leased or idle.

    ``session`` is client-owned state that survives across leases of the
    same connection — the HTTP client parks its per-connection response
    parser (with any pipelined leftover bytes) here so keep-alive reuse
    never loses buffered data.
    """

    __slots__ = ("fd", "pool", "session", "created", "idle_since")

    def __init__(self, fd: Any, pool: "ConnectionPool", created: float) -> None:
        self.fd = fd
        self.pool = pool
        self.session: Any = None
        self.created = created
        self.idle_since = created

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PooledConn {self.pool.name} fd={self.fd!r}>"


class _Waiter:
    """One parked ``acquire``: a one-shot box plus the handoff state."""

    __slots__ = ("box", "state")

    def __init__(self) -> None:
        self.box = MVar()
        self.state = "waiting"  # -> "handed" | "dead"


class ConnectionPool:
    """Bounded outbound connections to one upstream, leased monadically."""

    def __init__(
        self,
        io: Any,
        timers: Any,
        target: Any,
        size: int = 8,
        lease_timeout: float = 5.0,
        connect_timeout: float = 2.0,
        idle_timeout: float | None = 30.0,
        probe_interval: float = 0.5,
        name: str = "pool",
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.io = io
        self.timers = timers
        self.target = target
        self.size = size
        self.lease_timeout = lease_timeout
        self.connect_timeout = connect_timeout
        self.idle_timeout = idle_timeout
        self.probe_interval = probe_interval
        self.name = name
        self._idle: list[PooledConn] = []  # LIFO: reuse the warmest
        self._waiters: deque[_Waiter] = deque()
        self._leased = 0
        self._dialing = 0
        self._reserved = 0  # slots pledged to outstanding dial tickets
        self._reaper_armed = False
        self._probe_armed = False
        self.down = False
        self.closed = False
        self.last_error: str | None = None
        # Counters (monotonic; ``stats()`` adds the gauges).
        self.dials = 0
        self.leases = 0
        self.reuses = 0
        self.handoffs = 0
        self.discards = 0
        self.forfeits = 0
        self.lease_timeouts = 0
        self.connect_timeouts = 0
        self.evicted_idle = 0
        self.downs = 0
        self.probes = 0
        self.readmissions = 0

    # -- observability -------------------------------------------------
    @property
    def idle(self) -> int:
        return len(self._idle)

    @property
    def leased(self) -> int:
        return self._leased

    @property
    def waiting(self) -> int:
        return sum(1 for w in self._waiters if w.state == "waiting")

    @property
    def reuse_ratio(self) -> float:
        """Fraction of leases served by an already-open connection."""
        return self.reuses / self.leases if self.leases else 0.0

    def stats(self) -> dict:
        return {
            "dials": self.dials,
            "leases": self.leases,
            "reuses": self.reuses,
            "handoffs": self.handoffs,
            "discards": self.discards,
            "forfeits": self.forfeits,
            "lease_timeouts": self.lease_timeouts,
            "connect_timeouts": self.connect_timeouts,
            "evicted_idle": self.evicted_idle,
            "downs": self.downs,
            "probes": self.probes,
            "readmissions": self.readmissions,
            "idle": self.idle,
            "leased": self.leased,
            "waiting": self.waiting,
            "down": int(self.down),
        }

    # -- leasing -------------------------------------------------------
    @do
    def acquire(self, timeout: float | None = None):
        """Lease a connection; resumes with a :class:`PooledConn`.

        Raises :class:`PoolTimeout` after ``timeout`` (default
        ``lease_timeout``) parked, :class:`UpstreamDown` while the
        upstream is latched down, :class:`PoolClosed` after close.
        """
        if timeout is None:
            timeout = self.lease_timeout
        if self.closed:
            raise PoolClosed(f"{self.name}: pool closed")
        if self.down:
            raise UpstreamDown(
                f"{self.name}: upstream down ({self.last_error})"
            )
        if self._idle:
            pc = self._idle.pop()
            self._leased += 1
            self.leases += 1
            self.reuses += 1
            return pc
        if self._in_use() < self.size:
            pc = yield self._dial(register_lease=True)
            return pc
        waiter = _Waiter()
        self._waiters.append(waiter)
        handle = yield self.timers.schedule(
            timeout, lambda: self._expire(waiter)
        )
        outcome = yield waiter.box.take()
        handle.cancel()
        if outcome is _TIMED_OUT:
            self.lease_timeouts += 1
            raise PoolTimeout(
                f"{self.name}: no lease within {timeout:.3f}s "
                f"(size={self.size} leased={self._leased})"
            )
        if isinstance(outcome, PoolError):
            raise outcome
        if outcome is _DIAL:
            pc = yield self._dial(register_lease=True, reserved=True)
            return pc
        # Direct handoff: the releaser kept the lease count for us.
        self.leases += 1
        self.reuses += 1
        return outcome

    def forfeit(self, pc: PooledConn) -> None:
        """Abandonment hatch (plain code, callable under GeneratorExit):
        drop the lease and best-effort close the socket.  Parked waiters
        are *not* woken — they surface as lease timeouts."""
        self._leased -= 1
        self.forfeits += 1
        try:
            self.io.backend.close(pc.fd)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _in_use(self) -> int:
        return (self._leased + self._dialing + self._reserved
                + len(self._idle))

    def _expire(self, waiter: _Waiter):
        # Timer action: win the state transition in plain code, then
        # fill the box — the put cannot block because only the
        # transition winner ever fills it.
        if waiter.state != "waiting":
            return None
        waiter.state = "dead"
        return waiter.box.put(_TIMED_OUT)

    def _next_waiter(self) -> _Waiter | None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.state == "waiting":
                return waiter
        return None

    @do
    def release(self, pc: PooledConn, discard: bool = False):
        """Return a lease.  ``discard`` closes the connection (broken or
        non-reusable) instead of parking it idle; the freed slot is
        offered to the oldest waiter as a fresh-dial ticket."""
        self._leased -= 1
        if self.closed or self.down:
            yield self.io.close(pc.fd)
            return None
        if discard:
            self.discards += 1
            yield self.io.close(pc.fd)
            waiter = self._next_waiter()
            if waiter is not None:
                waiter.state = "handed"
                self._reserved += 1
                yield waiter.box.put(_DIAL)
            return None
        waiter = self._next_waiter()
        if waiter is not None:
            # The lease moves straight to the waiter: keep the count so
            # the slot is never observed free in between.
            self._leased += 1
            self.handoffs += 1
            waiter.state = "handed"
            yield waiter.box.put(pc)
            return None
        now = yield sys_now()
        pc.idle_since = now
        self._idle.append(pc)
        yield self._ensure_reaper()
        return None

    # -- dialing and health --------------------------------------------
    @do
    def _dial(self, register_lease=False, reserved=False, probe=False):
        if reserved:
            self._reserved -= 1
        if self.closed:
            raise PoolClosed(f"{self.name}: pool closed")
        if self.down and not probe:
            raise UpstreamDown(
                f"{self.name}: upstream down ({self.last_error})"
            )
        self._dialing += 1
        try:
            self.dials += 1
            try:
                conn = yield self.io.connect(
                    self.target, label=f"{self.name}-dial"
                )
            except OSError as exc:
                yield self._mark_down(exc)
                raise UpstreamDown(
                    f"{self.name}: connect failed: {exc}"
                ) from exc
            # The connect watchdog closes the in-progress socket; the
            # runtime wakes the parked dialer with ConnectionClosed.
            watchdog = yield self.timers.schedule(
                self.connect_timeout, lambda: self.io.close(conn)
            )
            try:
                yield self._await_connected(conn)
            except OSError as exc:
                watchdog.cancel()
                timed_out = watchdog.fired
                try:
                    yield self.io.close(conn)
                except OSError:
                    pass
                yield self._mark_down(exc)
                if timed_out:
                    self.connect_timeouts += 1
                    raise PoolTimeout(
                        f"{self.name}: connect timed out after "
                        f"{self.connect_timeout:.3f}s"
                    ) from exc
                raise UpstreamDown(
                    f"{self.name}: connect failed: {exc}"
                ) from exc
            watchdog.cancel()
            if watchdog.fired:
                # Lost the race: the watchdog fired just as the socket
                # connected (its close runs on its own thread, now or a
                # step from now).
                self.connect_timeouts += 1
                raise PoolTimeout(
                    f"{self.name}: connect timed out after "
                    f"{self.connect_timeout:.3f}s"
                )
            if self.down:
                self.down = False
                self.readmissions += 1
            now = yield sys_now()
            pc = PooledConn(conn, self, created=now)
            if register_lease:
                self._leased += 1
                self.leases += 1
            return pc
        finally:
            # Plain code: abandonment-safe.
            self._dialing -= 1

    @do
    def _await_connected(self, conn):
        # Non-blocking connect returns in-progress: wait for writability,
        # then read the socket error the kernel latched.  Simulated
        # endpoints (no getsockopt) connect optimistically — a dead sim
        # peer surfaces on first use instead.
        if getattr(conn, "getsockopt", None) is None:
            return None
        yield sys_epoll_wait(conn, EVENT_WRITE)
        code = conn.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if code:
            raise OSError(code, os.strerror(code))
        return None

    @do
    def _mark_down(self, exc):
        self.last_error = f"{type(exc).__name__}: {exc}"
        if self.closed:
            return None
        if not self.down:
            self.down = True
            self.downs += 1
        # Evict every idle connection — they share the dead upstream.
        while self._idle:
            pc = self._idle.pop()
            self.evicted_idle += 1
            yield self.io.close(pc.fd)
        # Fail parked waiters fast: the upstream will not free a lease.
        while True:
            waiter = self._next_waiter()
            if waiter is None:
                break
            waiter.state = "handed"
            yield waiter.box.put(UpstreamDown(
                f"{self.name}: upstream down ({self.last_error})"
            ))
        if not self._probe_armed:
            self._probe_armed = True
            yield self.timers.schedule(
                self.probe_interval, self._probe_action
            )
        return None

    def _probe_action(self):
        self._probe_armed = False
        if self.closed or not self.down:
            return None
        return self._probe()

    @do
    def _probe(self):
        self.probes += 1
        try:
            pc = yield self._dial(probe=True)
        except PoolError:
            if self.down and not self.closed and not self._probe_armed:
                self._probe_armed = True
                yield self.timers.schedule(
                    self.probe_interval, self._probe_action
                )
            return None
        # Readmitted (the dial flipped ``down`` off): keep the probe
        # connection if a slot is free, else close it.
        if self.closed or self._in_use() >= self.size:
            yield self.io.close(pc.fd)
            return None
        waiter = self._next_waiter()
        if waiter is not None:
            self._leased += 1
            self.handoffs += 1
            waiter.state = "handed"
            yield waiter.box.put(pc)
            return None
        now = yield sys_now()
        pc.idle_since = now
        self._idle.append(pc)
        yield self._ensure_reaper()
        return None

    # -- idle reaping --------------------------------------------------
    @do
    def _ensure_reaper(self):
        if self._reaper_armed or self.idle_timeout is None or self.closed:
            return None
        self._reaper_armed = True
        yield self.timers.schedule(self.idle_timeout, self._reap_action)
        return None

    def _reap_action(self):
        self._reaper_armed = False
        if self.closed or not self._idle:
            return None
        return self._reap()

    @do
    def _reap(self):
        now = yield sys_now()
        keep: list[PooledConn] = []
        for pc in self._idle:
            if now - pc.idle_since >= self.idle_timeout:
                self.evicted_idle += 1
                yield self.io.close(pc.fd)
            else:
                keep.append(pc)
        self._idle[:] = keep
        if self._idle:
            yield self._ensure_reaper()
        return None

    # -- teardown ------------------------------------------------------
    @do
    def close(self):
        """Close the pool: evict idle connections, fail parked waiters.
        Leased connections are closed as they are released."""
        if self.closed:
            return None
        self.closed = True
        while self._idle:
            pc = self._idle.pop()
            yield self.io.close(pc.fd)
        while True:
            waiter = self._next_waiter()
            if waiter is None:
                break
            waiter.state = "handed"
            yield waiter.box.put(PoolClosed(f"{self.name}: pool closed"))
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("closed" if self.closed
                 else "down" if self.down else "up")
        return (f"<ConnectionPool {self.name} {state} "
                f"idle={self.idle} leased={self.leased} "
                f"waiting={self.waiting}/{self.size}>")
