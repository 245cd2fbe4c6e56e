"""The one event loop: the paper's ``worker_main`` over a swappable kernel.

Figure 14 draws one scheduler loop over device loops that can be swapped.
:class:`Runtime` is that loop.  It owns what every kernel shares: the
scheduler, the monadic I/O surface ``io`` with its receive-buffer pool
``buffers``, the deadline heap ``timers`` (``sys_sleep`` is an entry in
it), the clock behind ``sys_now``, and :meth:`Runtime.run`, the turn.  A kernel
subclass supplies the rest: a backend, a clock, its device handlers
(epoll, blocking I/O, AIO) and two hooks:

``_collect() -> bool``
    Resume the threads whose device operations finished since the last
    look, without waiting; whether any was resumed.
``_poll(timeout) -> bool``
    Wait at most ``timeout`` seconds for a device to make a thread
    ready (``timeout`` is ``None`` when no deadline is armed); whether
    any became ready.

:class:`~repro.runtime.live_runtime.LiveRuntime` is the real OS (an
epoll interest set, a pool of OS threads, the monotonic clock);
:class:`~repro.runtime.sim_runtime.SimRuntime` is the simulated kernel
in virtual time.  Both order a turn the same way, so a program tested in
the simulator meets the loop it will meet in production.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.monad import M
from ..core.scheduler import Scheduler, TCB
from ..core.trace import SysNow, SysSleep
from .io_api import NetIO
from .timer_wheel import TimerWheel

__all__ = ["Runtime", "TURN_STEPS"]

#: Steps (``sched.step()`` calls, each at most ``batch_limit`` system
#: calls) one loop turn takes before it looks at the devices whether or
#: not the ready queue is dry.
TURN_STEPS = 128


class Runtime:
    """Scheduler + timers + the loop turn; a kernel subclass adds devices."""

    def __init__(
        self,
        backend: Any,
        clock: Callable[[], float],
        uncaught: str | Callable = "raise",
    ) -> None:
        self.sched = Scheduler(uncaught=uncaught)
        self.backend = backend
        self.io = NetIO(backend)
        # The shared receive-buffer pool (owned by the I/O surface).
        self.buffers = self.io.buffers
        # The runtime's one deadline heap: sys_sleep, call timeouts,
        # write watchdogs, the KV hint pump and mesh keepalives are all
        # entries in it, and ``run`` fires it once per turn.
        self.timers = TimerWheel(clock, self.spawn)
        self._clock = clock
        self.sched.register_syscall(SysSleep, self._handle_sleep)
        self.sched.register_syscall(SysNow, self._handle_now)

    def spawn(self, comp: M | Callable[[], M], name: str | None = None) -> TCB:
        """Spawn a monadic thread."""
        return self.sched.spawn(comp, name=name)

    def _handle_sleep(self, _sched: Scheduler, tcb: TCB, node: SysSleep):
        tcb.state = "blocked"
        cont = node.cont
        self.timers.sleep(
            node.duration, lambda: self.sched.resume_value(tcb, cont, None)
        )
        return None

    def _handle_now(self, _sched: Scheduler, _tcb: TCB, node: SysNow):
        now = self._clock()
        cont = node.cont
        return lambda: cont(now)

    def run(
        self,
        until: Callable[[], bool] | None = None,
        idle_timeout: float | None = None,
    ) -> None:
        """Run until ``until()`` holds, every thread has finished with no
        timer left armed, or (if given) nothing happens for
        ``idle_timeout`` seconds of the kernel's clock.

        One *turn* is the paper's ``worker_main`` (§4.2): collect what the
        devices finished, take threads off the ready queue until it is
        dry — a thread forked or woken mid-turn (``sys_fork``, an MVar
        hand-off, ``sys_yield``) runs in the turn that made it ready —
        then fire the deadlines that are due (a deadline of "now" armed
        mid-turn fires here, with every thread that could add to its
        work already parked), then poll the devices once, until the next
        deadline unless something is still ready.  A turn takes at most
        :data:`TURN_STEPS` steps, so a thread that is always ready
        cannot keep the loop from I/O.  With ``idle_timeout`` set, a
        poll toward a later deadline ends at the idle deadline instead.
        """
        sched = self.sched
        timers = self.timers
        clock = self._clock
        active_at = clock()
        while True:
            if until is not None and until():
                return
            progressed = self._collect()
            for _ in range(TURN_STEPS):
                if not sched.step():
                    break
                progressed = True
                if until is not None and until():
                    return
            if timers.fire_due():
                progressed = True
                if until is not None and until():
                    return  # a plain timer action may be what it waits for
            if (until is None and sched.live_threads == 0
                    and timers.next_deadline() is None):
                return
            timeout = None
            if sched.ready:
                timeout = 0.0
            else:
                deadline = timers.next_deadline()
                if deadline is not None:
                    if idle_timeout is not None:
                        deadline = min(deadline, active_at + idle_timeout)
                    timeout = max(0.0, deadline - clock())
            if self._poll(timeout):
                progressed = True
            if idle_timeout is not None:
                now = clock()
                if progressed:
                    active_at = now
                elif now >= active_at + idle_timeout:
                    return

    def _collect(self) -> bool:
        raise NotImplementedError

    def _poll(self, timeout: float | None) -> bool:
        raise NotImplementedError
