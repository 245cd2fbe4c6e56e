"""The event-driven runtime: the paper's Figure 14, executable.

A runtime wires the programmable :class:`~repro.core.scheduler.Scheduler`
to device event loops through an I/O backend.  There is one loop,
:meth:`repro.runtime.loop.Runtime.run` (the paper's ``worker_main``), and
two kernels under it:

* :class:`repro.runtime.sim_runtime.SimRuntime` — deterministic execution
  against the simulated kernel (:mod:`repro.simos`): virtual time, CPU cost
  accounting, epoll/AIO harvesting, a blocking-I/O pool.  The paper-figure
  reproductions run here.
* :class:`repro.runtime.live_runtime.LiveRuntime` — execution against the
  real OS: non-blocking sockets multiplexed with ``select``/``epoll`` and a
  thread pool for blocking calls.  The runnable network examples use this.

Both run the same turn and expose the same monadic I/O surface
(:class:`repro.runtime.io_api.NetIO` — the paper's Figure 10 wrappers),
so server code is backend-agnostic and a program orders its work the
same way in virtual time as on the real OS.

Scaling out: cluster mode
=========================

The paper's §4.4 runs several ``worker_main`` event loops on one machine
and proposes per-scheduler queues with work stealing —
:class:`~repro.core.smp.SmpScheduler` implements that design.  Under
CPython, though, one process is one core of live serving, so
:class:`repro.runtime.cluster.ClusterServer` replicates the architecture
at the process level: ``N`` shard processes, each a complete
``LiveRuntime`` event loop, each
listening on the *same* port through its own ``SO_REUSEPORT`` socket.  The
kernel hashes incoming connections across the shard listeners, giving a
shared-nothing accept path — no lock, no handoff — which is how
thread-to-event systems (NFork, Continuation-Passing C) scale on SMPs.
The master process reserves the port, forks shards, aggregates their
counters over pipe-based control channels, and respawns any shard that
crashes.  See ``examples/cluster_server.py`` for the demo and
``benchmarks/perf/`` for the pinned benchmark that measures it.
"""

from .buffers import BufferLease, BufferPool
from .io_api import FileBody, NetIO
from .sim_runtime import SimRuntime
from .live_runtime import LiveRuntime, make_listener
from .cluster import AppContext, ClusterConfig, ClusterServer
from .pool import (
    ConnectionPool,
    PoolClosed,
    PooledConn,
    PoolError,
    PoolTimeout,
    UpstreamDown,
)
from .timer_wheel import TimerHandle, TimerWheel

__all__ = [
    "SimRuntime",
    "LiveRuntime",
    "NetIO",
    "BufferPool",
    "BufferLease",
    "FileBody",
    "make_listener",
    "AppContext",
    "ClusterConfig",
    "ClusterServer",
    "ConnectionPool",
    "PooledConn",
    "PoolError",
    "PoolTimeout",
    "PoolClosed",
    "UpstreamDown",
    "TimerWheel",
    "TimerHandle",
]
