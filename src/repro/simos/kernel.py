"""The simulated-kernel facade: devices, memory accounting, CPU charging.

One :class:`SimKernel` is one machine: a clock, a disk + filesystem, pipes,
a network, and RAM.  Both concurrency systems under test run against the
same kernel instance, so they see identical hardware:

* the monadic runtime (:mod:`repro.runtime`) uses the kernel through its
  sim backend (epoll + AIO + non-blocking calls);
* the NPTL baseline (:mod:`repro.simos.nptl`) uses blocking kernel calls.
"""

from __future__ import annotations

from .aio import AioContext
from .clock import VirtualClock
from .disk import DiskModel
from .epollsim import EpollSim
from .errors import OutOfMemoryError
from .filesys import SimFileSystem
from .net import Network
from .params import DEFAULT_PARAMS, SimParams
from .pipe import PipeReadEnd, PipeWriteEnd, make_pipe

__all__ = ["SimKernel"]


class SimKernel:
    """One simulated machine."""

    def __init__(
        self,
        params: SimParams | None = None,
        disk_policy: str = "clook",
    ) -> None:
        self.params = params if params is not None else DEFAULT_PARAMS
        self.clock = VirtualClock()
        self.disk = DiskModel(self.clock, self.params, policy=disk_policy)
        self.fs = SimFileSystem(self.clock, self.disk, self.params)
        self.net = Network(self.clock, self.params)
        #: RAM currently reserved (thread stacks, app caches...).
        self.ram_used = 0

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def alloc_ram(self, nbytes: int) -> None:
        """Reserve RAM; raises :class:`OutOfMemoryError` when exhausted."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.ram_used + nbytes > self.params.ram_bytes:
            raise OutOfMemoryError(
                f"requested {nbytes} bytes with "
                f"{self.params.ram_bytes - self.ram_used} free"
            )
        self.ram_used += nbytes

    def free_ram(self, nbytes: int) -> None:
        """Return reserved RAM."""
        self.ram_used = max(0, self.ram_used - nbytes)

    @property
    def memory_pressure(self) -> float:
        """Resident fraction of RAM (drives the cache-pressure model)."""
        return self.ram_used / self.params.ram_bytes

    # ------------------------------------------------------------------
    # CPU charging
    # ------------------------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Burn CPU time on the (single-core) machine."""
        self.clock.consume(seconds)

    def charge_copy(self, nbytes: int) -> None:
        """Burn CPU for a buffer copy, inflated by memory pressure."""
        self.clock.consume(self.params.copy_cost(nbytes, self.memory_pressure))

    # ------------------------------------------------------------------
    # Device constructors
    # ------------------------------------------------------------------
    def make_pipe(self) -> tuple[PipeReadEnd, PipeWriteEnd]:
        """A FIFO with the configured kernel buffer size."""
        return make_pipe(self.params.pipe_buffer_bytes)

    def make_epoll(self) -> EpollSim:
        """A fresh epoll instance."""
        return EpollSim()

    def make_aio(self) -> AioContext:
        """A fresh AIO context over this kernel's disk."""
        return AioContext()
