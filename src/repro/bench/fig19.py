"""Figure 19 — the web server under disk-intensive load.

Paper §5.2: "each client thread repeatedly requests a file chosen at random
from among 128K possible files available on the server; each file is 16KB
in size ... a 100Mbps Ethernet connection.  Our web server used a fixed
cache size of 100MB.  Before each trial run we flushed the Linux kernel
disk cache."

Both servers run against the same simulated machine (disk, RAM, link); the
clients are kernel threads on a zero-CPU scheduler (the paper's separate
client machine).  Differences under test:

* monadic server: application cache (100MB) + O_DIRECT AIO, thousands of
  monadic client threads cost ~nothing;
* Apache-like baseline: bounded worker pool, buffered reads through the
  kernel page cache (sized to what RAM remains after worker processes).

``n_files`` defaults to 16K files (paper: 128K) to bound Python-side setup
time; the cache-to-corpus ratio — the quantity that matters — is preserved
by scaling both cache sizes with ``corpus_scale``.
"""

from __future__ import annotations

import random

from ..http.baseline import ApacheLikeServer
from ..http.server import WebServer
from ..runtime.sim_runtime import SimRuntime
from ..simos.kernel import SimKernel
from ..simos.nptl import KConnect, KRead, KWrite, NptlSim, run_sims
from ..simos.params import SimParams

__all__ = ["run_monadic", "run_apache", "FILE_BYTES", "DEFAULT_FILES"]

FILE_BYTES = 16 * 1024
DEFAULT_FILES = 16 * 1024           # paper: 128K; scaled corpus
PAPER_FILES = 128 * 1024
PAPER_CACHE = 100 * 1024 * 1024


def _corpus_scale(n_files: int) -> float:
    """Cache sizes scale with the corpus so hit ratios match the paper."""
    return n_files / PAPER_FILES


def _build_site(kernel: SimKernel, n_files: int) -> list[str]:
    names = [f"file-{i:06d}.bin" for i in range(n_files)]
    for name in names:
        kernel.fs.create_file(name, FILE_BYTES)
    return names


def _warm_app_cache(server, kernel, names: list[str], seed: int) -> None:
    """Fill the application cache with a random resident set.

    The paper's trials are long enough to reach cache steady state; a few
    hundred measured responses are not, so the steady state is established
    up front (at zero virtual time — the contents were served earlier in
    the run's life).
    """
    rng = random.Random(seed + 9001)
    for index in rng.sample(range(len(names)), len(names)):
        name = names[index]
        size = kernel.fs.file_size(name)
        if server.cache.used_bytes + size > server.cache.capacity_bytes:
            break
        handle = kernel.fs.open(name)
        server.cache.put(name, handle.content_at(0, size))


def _request_for(name: str) -> bytes:
    return (
        f"GET /{name} HTTP/1.1\r\nHost: server\r\n\r\n"
    ).encode()


def _client_gen(listener, names, rng, state, target_responses):
    """One load-generator thread: persistent connection, random files."""
    conn = yield KConnect(listener)
    try:
        while state["responses"] < target_responses:
            name = names[rng.randrange(len(names))]
            request = _request_for(name)
            sent = 0
            while sent < len(request):
                sent += yield KWrite(conn, request[sent:])
            # Read the response: headers, then the advertised body length.
            buffer = bytearray()
            while b"\r\n\r\n" not in buffer:
                data = yield KRead(conn, 4096)
                if not data:
                    return
                buffer.extend(data)
            header_end = buffer.find(b"\r\n\r\n")
            header = bytes(buffer[:header_end]).decode("latin-1")
            length = 0
            for line in header.split("\r\n")[1:]:
                if line.lower().startswith("content-length:"):
                    length = int(line.split(":", 1)[1])
            body_got = len(buffer) - header_end - 4
            while body_got < length:
                data = yield KRead(conn, 65536)
                if not data:
                    return
                body_got += len(data)
            state["responses"] += 1
            state["bytes"] += header_end + 4 + length
    finally:
        conn.close()


def run_monadic(
    connections: int,
    n_files: int = DEFAULT_FILES,
    responses_target: int | None = None,
    params: SimParams | None = None,
    seed: int = 1,
) -> dict:
    """The monadic web server's data point."""
    kernel = SimKernel(params)
    names = _build_site(kernel, n_files)
    kernel.fs.flush_page_cache()
    rt = SimRuntime(kernel=kernel, uncaught="store")
    cache_bytes = int(PAPER_CACHE * _corpus_scale(n_files))
    listener = kernel.net.listen(backlog=connections + 16)
    server = WebServer(rt.io, listener, kernel.fs, cache_bytes=cache_bytes)
    kernel.alloc_ram(cache_bytes)  # the app cache is resident memory
    # The cache starts cold: the paper flushes caches before each trial.
    rt.spawn(server.main(), name="server")

    clients = NptlSim(kernel, charge_cpu=False)
    state = {"responses": 0, "bytes": 0}
    target = responses_target or max(400, connections * 3)
    rng = random.Random(seed)
    for i in range(connections):
        clients.spawn(
            _client_gen(listener, names, rng, state, target),
            name=f"client-{i}",
        )
    t_start = kernel.clock.now
    rt.run_hybrid([clients], until=lambda: state["responses"] >= target)
    elapsed = kernel.clock.now - t_start
    return {
        "connections": connections,
        "responses": state["responses"],
        "bytes": state["bytes"],
        "seconds": elapsed,
        "mbps": state["bytes"] / elapsed / (1024 * 1024),
        "cache_hit_rate": server.cache.hit_rate,
        "cpu_share": kernel.clock.cpu_consumed / elapsed,
        "disk_reads": kernel.disk.stats.completed,
    }


def run_apache(
    connections: int,
    n_files: int = DEFAULT_FILES,
    responses_target: int | None = None,
    params: SimParams | None = None,
    seed: int = 1,
    max_clients: int = 1024,
) -> dict:
    """The Apache-like baseline's data point."""
    base = params if params is not None else SimParams()
    workers = min(max_clients, max(connections, 1))
    # The kernel page cache gets what RAM remains after worker processes
    # (stacks are accounted separately by spawn); scaled with the corpus.
    from ..http.baseline import DEFAULT_WORKER_BYTES

    leftover = base.ram_bytes - workers * (
        DEFAULT_WORKER_BYTES + base.kernel_stack_bytes
    ) - 64 * 1024 * 1024  # kernel text/structures
    page_cache = max(0, int(leftover * _corpus_scale(n_files)))
    kernel = SimKernel(base.with_overrides(page_cache_bytes=page_cache))
    names = _build_site(kernel, n_files)
    # Cold page cache, matching the paper's pre-trial flush.
    kernel.fs.flush_page_cache()

    listener = kernel.net.listen(backlog=connections + 16)
    nptl = NptlSim(kernel)
    server = ApacheLikeServer(
        kernel, nptl, kernel.fs, listener, workers=workers
    )
    server.start()

    clients = NptlSim(kernel, charge_cpu=False)
    state = {"responses": 0, "bytes": 0}
    target = responses_target or max(400, connections * 3)
    rng = random.Random(seed)
    for i in range(connections):
        clients.spawn(
            _client_gen(listener, names, rng, state, target),
            name=f"client-{i}",
        )
    t_start = kernel.clock.now
    run_sims(kernel, [nptl, clients],
             done=lambda: state["responses"] >= target)
    elapsed = kernel.clock.now - t_start
    cache = kernel.fs.page_cache
    lookups = cache.hits + cache.misses
    return {
        "connections": connections,
        "responses": state["responses"],
        "bytes": state["bytes"],
        "seconds": elapsed,
        "mbps": state["bytes"] / elapsed / (1024 * 1024),
        "cache_hit_rate": cache.hits / lookups if lookups else 0.0,
        "cpu_share": kernel.clock.cpu_consumed / elapsed,
        "disk_reads": kernel.disk.stats.completed,
        "workers": workers,
    }
