"""The NPTL baseline: simulated kernel threads with blocking syscalls.

The paper benchmarks against "comparable C programs using the Native POSIX
Thread Library" with 32KB stacks (§5).  This module is that baseline's
substrate: kernel threads written as Python generators yielding *kernel
operations* (blocking read/write/pread/sleep), scheduled by a small kernel
scheduler that charges realistic CPU costs:

* ``t_kernel_syscall`` per syscall entry/exit;
* ``t_kernel_switch`` per block/wake context switch;
* per-byte copy cost inflated by memory pressure (32KB per thread stack —
  the mechanism that caps NPTL near 16K threads on the 512MB machine and
  produces the Figure 17/18 endpoints).

The generators model *C programs*, not our monadic threads: this is the
competitor system, built on the same simulated devices so comparisons are
apples-to-apples.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator

from .errors import WOULD_BLOCK, SimOsError
from .kernel import SimKernel
from ..core.events import EVENT_READ, EVENT_WRITE

__all__ = [
    "KOp",
    "KCpu",
    "KConnect",
    "KRead",
    "KWrite",
    "KPread",
    "KSleep",
    "KYield",
    "KAccept",
    "KThread",
    "NptlSim",
]


class KOp:
    """Base class for kernel operations a thread can yield."""

    __slots__ = ()


class KRead(KOp):
    """Blocking read of up to ``nbytes`` from a pipe/stream end; resumes
    with the data (``b""`` at EOF)."""

    __slots__ = ("fd", "nbytes")

    def __init__(self, fd: Any, nbytes: int) -> None:
        self.fd = fd
        self.nbytes = nbytes


class KWrite(KOp):
    """Blocking write; resumes with the byte count accepted (the kernel
    returns after buffering at least one byte, like POSIX write)."""

    __slots__ = ("fd", "data")

    def __init__(self, fd: Any, data: bytes) -> None:
        self.fd = fd
        self.data = data


class KPread(KOp):
    """Blocking positioned file read; resumes with the data.

    ``direct`` selects O_DIRECT (bypass page cache — the Figure 17
    workload) versus buffered reads (the Apache-like baseline).
    """

    __slots__ = ("file", "offset", "nbytes", "direct")

    def __init__(self, file: Any, offset: int, nbytes: int, direct: bool = True) -> None:
        self.file = file
        self.offset = offset
        self.nbytes = nbytes
        self.direct = direct


class KSleep(KOp):
    """Sleep for a duration of virtual time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds


class KYield(KOp):
    """Yield the CPU (sched_yield)."""

    __slots__ = ()


class KAccept(KOp):
    """Blocking accept on a listener; resumes with the connection."""

    __slots__ = ("listener",)

    def __init__(self, listener: Any) -> None:
        self.listener = listener


class KCpu(KOp):
    """Burn ``seconds`` of CPU (models application compute, e.g. the
    per-request overhead of the Apache-like baseline)."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds


class KConnect(KOp):
    """Connect to a listener on the simulated network; resumes with the
    client-side stream end."""

    __slots__ = ("listener",)

    def __init__(self, listener: Any) -> None:
        self.listener = listener


class KThread:
    """A simulated kernel thread."""

    __slots__ = ("gen", "name", "state", "result", "error")

    def __init__(self, gen: Generator[KOp, Any, Any], name: str | None) -> None:
        self.gen = gen
        self.name = name
        self.state = "ready"
        self.result: Any = None
        self.error: BaseException | None = None


class NptlSim:
    """The kernel-thread scheduler and syscall layer."""

    #: Inline syscalls a thread may complete before being preempted
    #: (timeslice stand-in; workloads block long before this).
    TIMESLICE_OPS = 64

    def __init__(
        self,
        kernel: SimKernel,
        charge_cpu: bool = True,
        account_memory: bool | None = None,
    ) -> None:
        self.kernel = kernel
        self.params = kernel.params
        self.clock = kernel.clock
        #: When False, this scheduler's threads consume no CPU — used to
        #: model load generators running on a *separate* client machine
        #: whose CPU is not under test (the paper's two-machine setup).
        self.charge_cpu = charge_cpu
        #: Whether thread stacks draw from this kernel's RAM; a separate
        #: client machine's threads do not (defaults to ``charge_cpu``).
        self.account_memory = (
            charge_cpu if account_memory is None else account_memory
        )
        self.run_queue: deque[tuple[KThread, Any, BaseException | None]] = deque()
        self.live = 0
        self.finished = 0
        self.spawned = 0
        self.context_switches = 0
        self.syscalls = 0

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def spawn(
        self, gen: Generator[KOp, Any, Any], name: str | None = None
    ) -> KThread:
        """Create a kernel thread; reserves its stack.

        Raises :class:`OutOfMemoryError` when RAM for another 32KB stack is
        not available — the paper's "NPTL scales up to 16K threads" limit.
        """
        if self.account_memory:
            self.kernel.alloc_ram(self.params.kernel_stack_bytes)
        thread = KThread(gen, name)
        self.live += 1
        self.spawned += 1
        self.run_queue.append((thread, None, None))
        return thread

    def can_spawn(self, count: int = 1) -> bool:
        """Whether ``count`` more stacks fit in RAM."""
        need = count * self.params.kernel_stack_bytes
        return self.kernel.ram_used + need <= self.params.ram_bytes

    # ------------------------------------------------------------------
    # The scheduler loop
    # ------------------------------------------------------------------
    def run(self, done: Callable[[], bool] | None = None) -> None:
        """Run until ``done()`` (if given), or no work remains."""
        while True:
            if done is not None and done():
                return
            if not self.step() and not self.clock.advance():
                return

    def step(self) -> bool:
        """Run the next ready thread for one timeslice; whether one was
        ready."""
        if not self.run_queue:
            return False
        thread, value, exc = self.run_queue.popleft()
        self._run_thread(thread, value, exc)
        return True

    def _charge(self, seconds: float) -> None:
        if self.charge_cpu:
            self.clock.consume(seconds)

    def _charge_copy(self, nbytes: int) -> None:
        if self.charge_cpu:
            self.kernel.charge_copy(nbytes)

    def _charge_network(self, fd: Any, nbytes: int) -> None:
        """Kernel TCP/IP path cost for stream sockets (per MTU unit)."""
        if not self.charge_cpu or nbytes <= 0:
            return
        from .net import StreamEnd

        if isinstance(fd, StreamEnd):
            packets = -(-nbytes // self.params.net_mtu)
            self.kernel.charge(packets * self.params.t_net_per_packet)

    def _run_thread(
        self, thread: KThread, value: Any, exc: BaseException | None
    ) -> None:
        # Waking a blocked/preempted thread is a kernel context switch:
        # direct cost plus the indirect cache/TLB refill that follows.
        self.context_switches += 1
        self._charge(
            self.params.t_kernel_switch + self.params.t_switch_cache_penalty
        )
        thread.state = "running"
        if isinstance(value, _Retry):
            # The op that blocked is retried now that the thread runs —
            # not earlier: a woken thread touches the device only after
            # the scheduler actually switches to it.
            outcome = self._syscall(thread, value.op)
            if outcome is _BLOCKED:
                thread.state = "blocked"
                return
            value = outcome
        for _slice in range(self.TIMESLICE_OPS):
            try:
                if exc is not None:
                    op = thread.gen.throw(exc)
                    exc = None
                else:
                    op = thread.gen.send(value)
            except StopIteration as stop:
                self._exit(thread, stop.value, None)
                return
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as raised:
                self._exit(thread, None, raised)
                return

            outcome = self._syscall(thread, op)
            if outcome is _BLOCKED:
                thread.state = "blocked"
                return
            value = outcome
        # Timeslice exhausted: preempt.
        thread.state = "ready"
        self.run_queue.append((thread, value, None))

    def _exit(
        self, thread: KThread, result: Any, error: BaseException | None
    ) -> None:
        thread.state = "done" if error is None else "failed"
        thread.result = result
        thread.error = error
        self.live -= 1
        self.finished += 1
        if self.account_memory:
            self.kernel.free_ram(self.params.kernel_stack_bytes)
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    # Syscalls
    # ------------------------------------------------------------------
    def _syscall(self, thread: KThread, op: KOp):
        self.syscalls += 1
        self._charge(self.params.t_kernel_syscall)
        kind = type(op)

        if kind is KRead:
            data = op.fd.read(op.nbytes)
            if data is WOULD_BLOCK:
                self._park(thread, op.fd, EVENT_READ, op)
                return _BLOCKED
            self._charge_copy(len(data))
            self._charge_network(op.fd, len(data))
            return data

        if kind is KWrite:
            count = op.fd.write(op.data)
            if count is WOULD_BLOCK:
                self._park(thread, op.fd, EVENT_WRITE, op)
                return _BLOCKED
            self._charge_copy(count)
            self._charge_network(op.fd, count)
            return count

        if kind is KPread:
            # O_DIRECT DMAs straight into the user buffer (no memcpy);
            # buffered reads copy out of the page cache.
            buffered = not op.direct

            def complete(data: bytes) -> None:
                if buffered:
                    self._charge_copy(len(data))
                self.run_queue.append((thread, data, None))

            if op.direct:
                op.file.pread_direct(op.offset, op.nbytes, complete)
            else:
                op.file.pread_buffered(op.offset, op.nbytes, complete)
            return _BLOCKED

        if kind is KSleep:
            self.clock.schedule(
                op.seconds, lambda: self.run_queue.append((thread, None, None))
            )
            return _BLOCKED

        if kind is KYield:
            self.run_queue.append((thread, None, None))
            return _BLOCKED

        if kind is KCpu:
            self._charge(op.seconds)
            return None

        if kind is KConnect:
            conn = self.kernel.net.connect(op.listener)
            from .errors import WOULD_BLOCK as _WB
            if conn is _WB:
                raise SimOsError("connect: listener backlog full")
            return conn

        if kind is KAccept:
            conn = op.listener.accept()
            if conn is WOULD_BLOCK:
                self._park(thread, op.listener, EVENT_READ, op)
                return _BLOCKED
            return conn

        raise TypeError(f"kernel thread yielded unknown op {op!r}")

    # Blocking ops park on the device; readiness marks the thread runnable
    # and the op is retried when the scheduler switches to it (see
    # ``_run_thread``), like a kernel sleeping in a driver wait queue.
    def _park(self, thread: KThread, fd: Any, mask: int, op: KOp) -> None:
        fd.add_waiter(
            mask,
            lambda _ready: self.run_queue.append((thread, _Retry(op), None)),
        )


class _Blocked:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<BLOCKED>"


_BLOCKED = _Blocked()


class _Retry:
    """Marks a wakeup that must re-issue the op that blocked."""

    __slots__ = ("op",)

    def __init__(self, op: KOp) -> None:
        self.op = op


def run_sims(
    kernel: SimKernel,
    sims: list[NptlSim],
    done: Callable[[], bool] | None = None,
) -> None:
    """Interleave several kernel-thread schedulers on one clock.

    Used when two "machines" share a simulated world — e.g. the Apache
    baseline's server scheduler plus a zero-CPU client-load scheduler.
    Round-robins ready threads across schedulers, advancing the clock when
    all are idle.
    """
    while True:
        if done is not None and done():
            return
        if not any([sim.step() for sim in sims]) and not kernel.clock.advance():
            return


__all__.append("run_sims")
