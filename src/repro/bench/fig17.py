"""Figure 17 — the disk head scheduling test.

Paper §5.1: "each thread randomly reads a 4KB block from a 1GB file opened
using O_DIRECT without caching.  Each test reads a total of 512MB data and
the overall throughput is measured."  NPTL (blocking ``pread`` on kernel
threads) is compared against the monadic runtime (``sys_aio_read`` on
application-level threads); both hit the same simulated disk, so the curve
shape — throughput rising with concurrency as the elevator gets a deeper
queue, NPTL stopping at its 16K-thread stack limit — is emergent.

``total_bytes`` defaults to 64MB per point (the paper used 512MB); the
measurement is a steady-state *rate*, so the total only affects noise.
Scale it with ``REPRO_BENCH_SCALE`` if desired.
"""

from __future__ import annotations

import random

from ..core.do_notation import do
from ..core.syscalls import sys_aio_read
from ..runtime.sim_runtime import SimRuntime
from ..simos.errors import OutOfMemoryError
from ..simos.kernel import SimKernel
from ..simos.nptl import KPread, NptlSim
from ..simos.params import SimParams

__all__ = ["run_monadic", "run_nptl", "FILE_BYTES", "BLOCK"]

FILE_BYTES = 1 * 1024 * 1024 * 1024  # the 1GB test file
BLOCK = 4096


def _make_kernel(params: SimParams | None) -> SimKernel:
    kernel = SimKernel(params)
    kernel.fs.create_file("testfile", FILE_BYTES)
    return kernel

def run_monadic(
    n_threads: int,
    total_bytes: int = 64 * 1024 * 1024,
    params: SimParams | None = None,
    seed: int = 1,
) -> dict:
    """The monadic system's data point: AIO reads from n application
    threads; returns throughput and counters."""
    kernel = _make_kernel(params)
    rt = SimRuntime(kernel=kernel)
    rng = random.Random(seed)
    total_blocks = total_bytes // BLOCK
    state = {"submitted": 0, "completed": 0}
    handle = kernel.fs.open("testfile")

    @do
    def reader():
        while True:
            if state["submitted"] >= total_blocks:
                return
            state["submitted"] += 1
            offset = rng.randrange(0, FILE_BYTES - BLOCK)
            data = yield sys_aio_read(handle, offset, BLOCK)
            assert len(data) == BLOCK
            state["completed"] += 1

    for i in range(n_threads):
        rt.spawn(reader(), name=f"reader-{i}")
    rt.run(until=lambda: state["completed"] >= total_blocks)
    elapsed = kernel.clock.now
    return {
        "threads": n_threads,
        "bytes": state["completed"] * BLOCK,
        "seconds": elapsed,
        "mbps": state["completed"] * BLOCK / elapsed / (1024 * 1024),
        "cpu_share": kernel.clock.cpu_consumed / elapsed,
        "mean_latency": kernel.disk.stats.mean_latency,
        "max_queue_depth": kernel.disk.stats.max_queue_depth,
    }


def run_nptl(
    n_threads: int,
    total_bytes: int = 64 * 1024 * 1024,
    params: SimParams | None = None,
    seed: int = 1,
) -> dict | None:
    """The NPTL baseline's data point, or ``None`` past the stack-memory
    cap (the paper's NPTL series simply ends at ~16K threads)."""
    kernel = _make_kernel(params)
    sim = NptlSim(kernel)
    rng = random.Random(seed)
    total_blocks = total_bytes // BLOCK
    state = {"submitted": 0, "completed": 0}
    handle = kernel.fs.open("testfile")

    def reader():
        while True:
            if state["submitted"] >= total_blocks:
                return
            state["submitted"] += 1
            offset = rng.randrange(0, FILE_BYTES - BLOCK)
            data = yield KPread(handle, offset, BLOCK, direct=True)
            assert len(data) == BLOCK
            state["completed"] += 1

    try:
        for i in range(n_threads):
            sim.spawn(reader(), name=f"reader-{i}")
    except OutOfMemoryError:
        return None
    sim.run(done=lambda: state["completed"] >= total_blocks)
    elapsed = kernel.clock.now
    return {
        "threads": n_threads,
        "bytes": state["completed"] * BLOCK,
        "seconds": elapsed,
        "mbps": state["completed"] * BLOCK / elapsed / (1024 * 1024),
        "cpu_share": kernel.clock.cpu_consumed / elapsed,
        "mean_latency": kernel.disk.stats.mean_latency,
        "max_queue_depth": kernel.disk.stats.max_queue_depth,
    }
