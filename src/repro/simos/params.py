"""Calibration constants for the simulated testbed, in one place.

The paper's absolute numbers come from specific 2006 hardware (§5.1: a
Celeron 1.2GHz for the I/O tests, a 7200RPM 80GB EIDE disk, 512MB RAM,
100Mbps Ethernet).  The constants below are calibrated so the simulator's
*baseline operating points* land near the paper's, while every *curve shape*
(elevator gains with queue depth, thread-count caps, CPU-bound plateaus) is
emergent from the mechanisms, not scripted.  EXPERIMENTS.md reports
paper-vs-measured series side by side.

Times are in seconds, sizes in bytes, rates in bytes/second.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SimParams", "DEFAULT_PARAMS"]


@dataclass
class SimParams:
    """Every knob of the simulated machine."""

    # ------------------------------------------------------------------
    # CPU costs (Celeron 1.2GHz class).  The monadic/kernel asymmetry is
    # the paper's architectural point: an application-level context switch
    # is a closure call; a kernel one crosses protection domains.
    # ------------------------------------------------------------------
    #: CPU time to dispatch one monadic system call in the event loop.
    t_monadic_syscall: float = 0.15e-6
    #: CPU time for a monadic thread switch (dequeue + trace force setup).
    #: An application-level switch is a closure call: the event loop's code
    #: and data stay cache-hot.
    t_monadic_switch: float = 0.30e-6
    #: CPU time for a kernel syscall entry/exit (read/write/...).
    t_kernel_syscall: float = 1.5e-6
    #: Direct CPU time for a kernel context switch (NPTL block/wake path).
    t_kernel_switch: float = 9.0e-6
    #: Indirect context-switch cost: cache/TLB refill after returning to a
    #: thread whose working set was evicted.  Well documented to equal or
    #: exceed the direct cost on small-cache machines (the test box is a
    #: Celeron with 256KB L2); this asymmetry versus the always-hot event
    #: loop is the mechanism behind Figure 18's gap.
    t_switch_cache_penalty: float = 6.0e-6
    #: CPU time to copy one byte between buffers.  Calibrated to an
    #: effective ~120MB/s: pipe traffic on the Celeron is cold in its
    #: 256KB L2, so copies run at memory speed, not cache speed.
    t_copy_per_byte: float = 8.0e-9
    #: Fixed CPU time per epoll_wait invocation (harvest batch).
    t_epoll_wait: float = 1.2e-6
    #: CPU time per event returned by epoll_wait.
    t_epoll_event: float = 0.35e-6
    #: CPU time to register/modify interest on an epoll instance.
    t_epoll_register: float = 0.6e-6
    #: CPU time to submit one AIO request.
    t_aio_submit: float = 1.4e-6
    #: Latency for a blocking-pool operation handoff (queue + pool wake).
    t_blio_handoff: float = 6.0e-6
    #: Kernel network-path CPU per packet (interrupt, softirq, TCP/IP
    #: processing) on the 2006 machine — charged per MTU-sized unit moved
    #: through kernel stream sockets, on the host doing the I/O.
    t_net_per_packet: float = 35.0e-6

    #: Cache-pressure coefficient: effective per-byte copy cost grows by
    #: ``1 + alpha * sqrt(resident/ram)`` as resident thread state grows.
    cache_pressure_alpha: float = 0.12

    # ------------------------------------------------------------------
    # Memory (the Fig 17/18 machine: 512MB).
    # ------------------------------------------------------------------
    ram_bytes: int = 512 * 1024 * 1024
    #: NPTL per-thread stack reservation (paper: configured to 32KB,
    #: "allows NPTL to scale up to 16K threads").
    kernel_stack_bytes: int = 32 * 1024
    #: Resident bytes per parked monadic thread (measured in E1; used only
    #: for the cache-pressure model, not as a hard limit).
    monadic_thread_bytes: int = 512

    # ------------------------------------------------------------------
    # Disk (7200RPM 80GB EIDE, 8MB buffer).  Service time for a request at
    # byte offset o with the head at h:
    #     seek(|o-h|) + rotation + size/transfer_rate + overhead
    # seek(d) = seek_min + (seek_max - seek_min) * sqrt(d / disk_span)
    # (the standard sqrt model: short seeks are acceleration-bound).
    # ------------------------------------------------------------------
    disk_span_bytes: int = 80 * 1000 * 1000 * 1000
    disk_seek_min: float = 0.8e-3
    #: Full-stroke seek.  Calibrated above a modern datasheet value: it also
    #: absorbs track-density and settle effects so that random reads inside
    #: a 1GB file land at the paper's measured 0.525 MB/s (queue depth 1)
    #: and ~0.67 MB/s (deep queue) operating points.
    disk_seek_max: float = 22.0e-3
    #: Average rotational latency: half a revolution at 7200RPM.
    disk_rotation: float = 4.17e-3
    disk_transfer_rate: float = 40.0 * 1024 * 1024
    #: Fixed controller/DMA/command overhead per request (EIDE-era).
    disk_overhead: float = 0.8e-3
    #: Write-barrier (fsync/FLUSH CACHE) drain time once every queued
    #: write has completed: roughly one revolution to land the last
    #: sectors plus command overhead.  This is the per-barrier price a
    #: write-ahead log pays — group commit exists to amortise it.
    disk_flush_time: float = 5.0e-3

    # ------------------------------------------------------------------
    # Pipes (Linux FIFO, the Fig 18 workload fixes 4KB).
    # ------------------------------------------------------------------
    pipe_buffer_bytes: int = 4 * 1024

    # ------------------------------------------------------------------
    # Network (100Mbps Ethernet, the Fig 19 link).
    # ------------------------------------------------------------------
    net_bandwidth: float = 100e6 / 8
    net_latency: float = 0.15e-3
    net_mtu: int = 1500

    # ------------------------------------------------------------------
    # Kernel page cache (used by baseline buffered I/O; our server's AIO
    # path bypasses it, like the paper's O_DIRECT + application cache).
    # ------------------------------------------------------------------
    page_bytes: int = 4 * 1024
    page_cache_bytes: int = 100 * 1024 * 1024

    def with_overrides(self, **kwargs) -> "SimParams":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def seek_time(self, distance: int) -> float:
        """Head seek time for a move of ``distance`` bytes."""
        if distance <= 0:
            return 0.0
        frac = min(1.0, distance / self.disk_span_bytes)
        return self.disk_seek_min + (self.disk_seek_max - self.disk_seek_min) * (
            frac ** 0.5
        )

    def disk_service_time(self, distance: int, nbytes: int) -> float:
        """Full service time for one disk request."""
        return (
            self.seek_time(distance)
            + self.disk_rotation
            + nbytes / self.disk_transfer_rate
            + self.disk_overhead
        )

    def copy_cost(self, nbytes: int, pressure: float = 0.0) -> float:
        """CPU cost to copy ``nbytes``, inflated by cache pressure.

        ``pressure`` is resident-state bytes divided by RAM (see
        ``cache_pressure_alpha``).
        """
        scale = 1.0 + self.cache_pressure_alpha * (max(0.0, pressure) ** 0.5)
        return nbytes * self.t_copy_per_byte * scale


#: Shared default parameter set (treat as immutable).
DEFAULT_PARAMS = SimParams()
