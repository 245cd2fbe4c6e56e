"""The paper's case study, end to end: the monadic web server under load.

Builds the simulated machine (disk with elevator scheduling, 100Mbps link),
serves a small site from the monadic web server — per-client threads, AIO
reads, application-managed cache — and drives it with kernel-thread load
generators, reporting the throughput curve as connections grow (a miniature
of Figure 19).

Run with::

    python examples/web_server_sim.py
"""

from __future__ import annotations

import random

from repro.bench.fig19 import _build_site, _client_gen
from repro.http.server import WebServer
from repro.runtime.sim_runtime import SimRuntime
from repro.simos.kernel import SimKernel
from repro.simos.nptl import NptlSim

N_FILES = 2_000          # 16KB each: a 31MB corpus
CACHE_BYTES = 4 * 1024 * 1024


def run_point(connections: int) -> dict:
    kernel = SimKernel()
    names = _build_site(kernel, N_FILES)
    rt = SimRuntime(kernel=kernel, uncaught="store")
    listener = kernel.net.listen(backlog=connections + 16)
    # The transport is the first argument: ``rt.io`` here, a
    # ``TcpSockets`` (with ``stack.listen(80)``) for the app-level stack.
    server = WebServer(rt.io, listener, kernel.fs, cache_bytes=CACHE_BYTES)
    rt.spawn(server.main(), name="webserver")

    clients = NptlSim(kernel, charge_cpu=False)
    state = {"responses": 0, "bytes": 0}
    target = max(200, connections * 2)
    rng = random.Random(42)
    for i in range(connections):
        clients.spawn(
            _client_gen(listener, names, rng, state, target),
            name=f"client-{i}",
        )

    start = kernel.clock.now
    rt.run_hybrid([clients], until=lambda: state["responses"] >= target)
    elapsed = kernel.clock.now - start
    return {
        "connections": connections,
        "responses": state["responses"],
        "mbps": state["bytes"] / elapsed / (1024 * 1024),
        "hit_rate": server.cache.hit_rate,
        "disk_reads": kernel.disk.stats.completed,
        "virtual_seconds": elapsed,
    }


def main() -> None:
    print(f"site: {N_FILES} files x 16KB; app cache {CACHE_BYTES >> 20}MB; "
          "100Mbps link; 7200RPM disk\n")
    print(f"{'conns':>6} {'MB/s':>8} {'cache hit':>10} {'disk reads':>11} "
          f"{'virtual s':>10}")
    curve = []
    for connections in (1, 8, 32, 128, 512):
        point = run_point(connections)
        curve.append(point)
        print(
            f"{point['connections']:>6} {point['mbps']:>8.3f} "
            f"{point['hit_rate']:>10.1%} {point['disk_reads']:>11} "
            f"{point['virtual_seconds']:>10.2f}"
        )
    # The Figure 19 shape in miniature: concurrency helps until the disk
    # saturates.
    assert curve[-1]["mbps"] > curve[0]["mbps"]
    print("\nweb server demo OK — throughput rises with concurrency, "
          "then the disk becomes the bottleneck")


if __name__ == "__main__":
    main()
