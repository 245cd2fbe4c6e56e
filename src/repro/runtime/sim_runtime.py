"""The deterministic runtime over the simulated kernel.

This is the paper's event-driven system (Figure 14) realized on one
simulated CPU: the one event loop of :mod:`repro.runtime.loop` — the
same turn :class:`~repro.runtime.live_runtime.LiveRuntime` runs — over
the simulated epoll loop (Figure 16), AIO completion loop and
blocking-I/O pool, all on the virtual clock with explicit CPU cost
accounting:

* ``t_monadic_switch`` per scheduler batch (thread switch);
* ``t_monadic_syscall`` per trace node dispatched;
* epoll register/wait/event and AIO submit costs per the device models;
* kernel-crossing and copy costs are charged by the backend's non-blocking
  call wrappers (:class:`SimBackend`), since a non-blocking ``read`` is
  still a real system call — the monadic design wins on *scheduling*
  costs, not by magicking syscalls away.  That bookkeeping honesty is what
  makes the Figure 18 comparison meaningful.

This kernel's two loop hooks: ``_collect`` harvests epoll and AIO, and
``_poll`` runs the calendar (device completions, packet arrivals, the
blocking pool, kernel-thread schedulers sharing the clock) one event at
a time until a thread is ready or the deadline passes; idle virtual time
jumps to the deadline.  With no deadline armed and an empty calendar,
nothing can ever wake the parked threads: :class:`DeadlockError`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ..core.exceptions import DeadlockError
from ..core.monad import M
from ..core.scheduler import Scheduler, TCB
from ..core.trace import SysAioRead, SysBlio, SysEpollWait, Thunk
from ..simos.errors import WOULD_BLOCK, SimOsError
from ..simos.kernel import SimKernel
from .loop import Runtime

__all__ = ["SimRuntime", "SimBackend", "BlockingPool"]


class SimBackend:
    """Non-blocking kernel-call wrappers with CPU cost charging.

    The ``fd`` objects are simulated pollables (pipe ends, stream ends,
    listeners); calls follow the kernel convention: result, ``b""`` for
    EOF, or ``WOULD_BLOCK``.
    """

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
        self.params = kernel.params
        # Same counter surface as LiveBackend, so benches and tests can
        # assert the zero-copy claims against either runtime.
        self.read_calls = 0
        self.recv_into_calls = 0
        self.sendfile_calls = 0
        self.sendfile_bytes = 0

    def nb_read(self, fd: Any, nbytes: int):
        """Non-blocking read (a kernel crossing + copy-out on success)."""
        self.read_calls += 1
        self.kernel.charge(self.params.t_kernel_syscall)
        data = fd.read(nbytes)
        if data is not WOULD_BLOCK and data:
            self.kernel.charge_copy(len(data))
            self._charge_network(fd, len(data))
        return data

    def nb_recv_into(self, fd: Any, buf):
        """Read into a caller buffer: one crossing, one copy-out.

        The cost model charges the same syscall + copy as ``nb_read`` —
        the kernel still moves the bytes — but the *application* side
        allocates nothing: the win this primitive models is the fresh
        ``bytes``-per-recv allocation the pooled buffer replaces.
        Returns the byte count (0 at EOF) or ``WOULD_BLOCK``.
        """
        self.recv_into_calls += 1
        self.kernel.charge(self.params.t_kernel_syscall)
        data = fd.read(len(buf))
        if data is WOULD_BLOCK:
            return WOULD_BLOCK
        if not data:
            return 0
        count = len(data)
        buf[:count] = data
        self.kernel.charge_copy(count)
        self._charge_network(fd, count)
        return count

    def nb_write(self, fd: Any, data: bytes):
        """Non-blocking write (a kernel crossing + copy-in on success)."""
        self.kernel.charge(self.params.t_kernel_syscall)
        count = fd.write(data)
        if count is not WOULD_BLOCK and count:
            self.kernel.charge_copy(count)
            self._charge_network(fd, count)
        return count

    def nb_writev(self, fd: Any, bufs: list):
        """Gathered write: the whole iovec for *one* kernel crossing.

        This is where the vectored hot path wins in the cost model: the
        copy-in and network costs are unchanged (the bytes still move),
        but N buffers cost one ``t_kernel_syscall`` instead of N — the
        same accounting honesty as ``nb_write``, now favoring callers
        that batch.
        """
        self.kernel.charge(self.params.t_kernel_syscall)
        count = fd.write(b"".join(bytes(buf) for buf in bufs))
        if count is not WOULD_BLOCK and count:
            self.kernel.charge_copy(count)
            self._charge_network(fd, count)
        return count

    def nb_sendfile(self, fd: Any, file: Any, offset: int, count: int):
        """Kernel-to-socket file send: one crossing per window, NO copy.

        This is where the cost model pays out the sendfile claim: the
        bytes go disk/page-cache → socket inside the kernel, so the
        ``charge_copy`` every read/write pair pays (copy-out plus
        copy-in) is *absent* — only the syscall crossing and the network
        path are charged.  Content is synthesized from the simulated
        file (``content_at``), modeling the hot-page-cache case the
        static hot path serves.  Returns the byte count accepted (0 at
        file EOF) or ``WOULD_BLOCK``.
        """
        self.sendfile_calls += 1
        self.kernel.charge(self.params.t_kernel_syscall)
        handle = file.fileno()
        data = handle.content_at(offset, count)
        if not data:
            return 0
        sent = fd.write(data)
        if sent is WOULD_BLOCK:
            return WOULD_BLOCK
        if sent:
            self.sendfile_bytes += sent
            self._charge_network(fd, sent)
        return sent

    def _charge_network(self, fd: Any, nbytes: int) -> None:
        """Kernel TCP/IP path cost for stream sockets (per MTU unit)."""
        from ..simos.net import StreamEnd

        if isinstance(fd, StreamEnd):
            packets = -(-nbytes // self.params.net_mtu)
            self.kernel.charge(packets * self.params.t_net_per_packet)

    def nb_accept(self, listener: Any):
        """Non-blocking accept."""
        self.kernel.charge(self.params.t_kernel_syscall)
        return listener.accept()

    def nb_accept_batch(self, listener: Any, limit: int) -> list:
        """Drain the accept queue, up to ``limit`` connections: one
        charged ``accept`` per connection, plus the one that finds the
        queue empty.  An empty batch means park on the listener."""
        conns = []
        while len(conns) < limit:
            conn = self.nb_accept(listener)
            if conn is WOULD_BLOCK:
                break
            conns.append(conn)
        return conns

    def nb_shed(self, fd: Any, farewell: bytes) -> None:
        """Overload-shedding close: one attempt at the farewell, then
        close (both charged as the calls they are)."""
        if farewell:
            try:
                self.nb_write(fd, farewell)
            except SimOsError:
                pass  # peer already gone: nothing to say to it
        self.close(fd)

    def nb_connect(self, listener: Any, label: str = "conn"):
        """Initiate a connection to a simulated listener."""
        self.kernel.charge(self.params.t_kernel_syscall)
        return self.kernel.net.connect(listener, label)

    def close(self, fd: Any) -> None:
        """Close a descriptor."""
        self.kernel.charge(self.params.t_kernel_syscall)
        fd.close()

    def now(self) -> float:
        return self.kernel.clock.now


class BlockingPool:
    """The blocking-I/O OS-thread pool of §4.6, simulated.

    At most ``size`` operations are in flight; each costs a queue handoff
    latency, then its action runs (at completion time) and the thread
    resumes with the resulting trace.
    """

    def __init__(self, runtime: "SimRuntime", size: int = 16) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.runtime = runtime
        self.size = size
        self.busy = 0
        self.queue: deque[tuple[TCB, Thunk]] = deque()
        self.completed = 0

    def submit(self, tcb: TCB, action: Callable, cont: Callable) -> None:
        """Queue a blocking operation for the pool."""
        if self.busy < self.size:
            self._start(tcb, action, cont)
        else:
            self.queue.append((tcb, action, cont))

    def _start(self, tcb: TCB, action: Callable, cont: Callable) -> None:
        self.busy += 1
        delay = self.runtime.params.t_blio_handoff

        def complete() -> None:
            self.busy -= 1
            self.completed += 1
            sched = self.runtime.sched
            try:
                value = action()
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                sched.resume_error(tcb, exc)
            else:
                sched.resume_value(tcb, cont, value)
            if self.queue:
                next_tcb, next_action, next_cont = self.queue.popleft()
                self._start(next_tcb, next_action, next_cont)

        self.runtime.kernel.clock.schedule(delay, complete)


class SimRuntime(Runtime):
    """The one event loop over the simulated kernel, in virtual time."""

    def __init__(
        self,
        kernel: SimKernel | None = None,
        uncaught: str | Callable = "raise",
        blocking_pool_size: int = 16,
    ) -> None:
        self.kernel = kernel if kernel is not None else SimKernel()
        self.params = self.kernel.params
        backend = SimBackend(self.kernel)
        super().__init__(backend, backend.now, uncaught)
        self.epoll = self.kernel.make_epoll()
        self.aio = self.kernel.make_aio()
        self.pool = BlockingPool(self, blocking_pool_size)
        #: Kernel-thread schedulers sharing this clock (``run_hybrid``).
        self._kernel_threads: list = []
        self._switches_charged = 0
        sched = self.sched
        sched.register_syscall(SysEpollWait, self._handle_epoll_wait)
        sched.register_syscall(SysAioRead, self._handle_aio_read)
        sched.register_syscall(SysBlio, self._handle_blio)
        sched.on_syscall = self._charge_syscall
        # Account monadic thread footprints (drives the cache-pressure
        # model; three orders lighter than kernel stacks).
        sched.add_exit_watcher(self._on_thread_exit)

    def spawn(self, comp: M | Callable[[], M], name: str | None = None) -> TCB:
        """Spawn a monadic thread on this runtime."""
        self.kernel.alloc_ram(self.params.monadic_thread_bytes)
        return self.sched.spawn(comp, name=name)

    def _on_thread_exit(self, _tcb: TCB) -> None:
        self.kernel.free_ram(self.params.monadic_thread_bytes)

    # ------------------------------------------------------------------
    # Syscall handlers (the scheduler-extension registry in action)
    # ------------------------------------------------------------------
    def _charge_syscall(self, _tcb: TCB, _node: Any) -> None:
        # A batch's first node pays its thread switch (the scheduler
        # counts switches; the loop's ``sched.step()`` stays unwrapped).
        # Then the uniform per-node cost.  A node is a system call: a
        # thread's @do region costs its entry (SysGen), each suspension
        # and its SysEndCatch/SysThrow exit, while a nested @do call runs
        # inline in the region and is charged nothing, like any other
        # Python call between system calls.
        # Installing this hook is what re-enables the scheduler's
        # per-node instrumentation branch; a live runtime leaves it None
        # and skips the work entirely.
        switches = self.sched.total_switches
        if switches != self._switches_charged:
            self.kernel.charge(
                (switches - self._switches_charged)
                * self.params.t_monadic_switch
            )
            self._switches_charged = switches
        self.kernel.charge(self.params.t_monadic_syscall)

    def _handle_epoll_wait(self, _sched: Scheduler, tcb: TCB, node: SysEpollWait):
        self.kernel.charge(self.params.t_epoll_register)
        tcb.state = "blocked"
        self.epoll.register(node.fd, node.events, (tcb, node.cont))
        return None

    def _handle_aio_read(self, _sched: Scheduler, tcb: TCB, node: SysAioRead):
        self.kernel.charge(self.params.t_aio_submit)
        tcb.state = "blocked"
        self.aio.submit_read(node.fd, node.offset, node.nbytes, (tcb, node.cont))
        return None

    def _handle_blio(self, _sched: Scheduler, tcb: TCB, node: SysBlio):
        self.kernel.charge(self.params.t_kernel_syscall)
        tcb.state = "blocked"
        self.pool.submit(tcb, node.action, node.cont)
        return None

    # ------------------------------------------------------------------
    # The loop hooks: the device loops (worker_epoll / worker_aio)
    # ------------------------------------------------------------------
    def _collect(self) -> bool:
        return self._harvest(self.epoll) | self._harvest(self.aio)

    def _harvest(self, device: Any) -> bool:
        # One ``epoll_wait``/``io_getevents`` per harvest that finds
        # anything, plus a per-event cost: O(ready), not O(interested).
        events = device.harvest()
        if not events:
            return False
        self.kernel.charge(
            self.params.t_epoll_wait + len(events) * self.params.t_epoll_event
        )
        for (tcb, cont), value in events:
            self.sched.resume_value(tcb, cont, value)
        return True

    def _poll(self, timeout: float | None) -> bool:
        clock = self.kernel.clock
        limit = None if timeout is None else clock.now + timeout
        while True:
            clock.run_due()
            # Kernel threads (``run_hybrid``) run one each per look, and
            # only when no monadic thread is ready: the monadic side first.
            if (self._collect() or self.sched.ready
                    or any([sim.step() for sim in self._kernel_threads])):
                return True
            when = clock.next_event_time()
            if when is None or (limit is not None and when > limit):
                break
            clock.advance()
        if limit is None:
            raise DeadlockError(
                f"{self.sched.live_threads} thread(s) parked with no "
                f"deadline armed and an empty calendar"
            )
        clock.now = max(clock.now, limit)
        return False

    def run_hybrid(self, sims: list, until: Callable[[], bool]) -> None:
        """Drive this runtime *and* kernel-thread schedulers on one clock.

        Used by benchmarks where the monadic server shares a simulated
        world with kernel-thread load generators (the paper's separate
        client machine).  ``sims`` are :class:`repro.simos.nptl.NptlSim`
        instances sharing this runtime's kernel clock; the loop's poll
        runs their ready threads.
        """
        self._kernel_threads = list(sims)
        try:
            self.run(until=until)
        finally:
            self._kernel_threads = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Scheduler, device and clock counters for tests/benchmarks."""
        snapshot: dict[str, Any] = dict(self.sched.stats())
        snapshot.update(
            now=self.kernel.clock.now,
            cpu_consumed=self.kernel.clock.cpu_consumed,
            epoll_registrations=self.epoll.registrations,
            epoll_events=self.epoll.events_delivered,
            aio_submitted=self.aio.submitted,
            aio_completed=self.aio.completed,
            blio_completed=self.pool.completed,
            disk_completed=self.kernel.disk.stats.completed,
        )
        return snapshot
