"""Syscalls-per-operation microbench for the gathered-write hot path.

The CI box has one CPU, so cluster rps deltas are timesharing noise; the
honest way to measure the egress rewrite is the same ctl-counter method
the persistent-epoll work used: run server and clients **in one process,
on one event loop**, and read the backend's syscall counters.

Three properties are measured (and gated by ``check_bench_trend.py``):

* **writes per HTTP response** — header+body (and a small chunked body,
  and an error page) must leave as ONE ``sendmsg``:
  ``(write_calls + writev_calls) attributable to the server / responses``.
* **mesh frames per flush** — N concurrent casts/calls per link must
  coalesce into few gathered writes (``frames_sent / flushes > 1``).
* **timers, threads and reads per mesh call** — a call arms exactly one
  heap entry on the shared wheel (its deadline; no write watchdog on an
  unblocked link), R calls spawn O(1) sleeper threads, each received
  frame costs about one ``recv``, and cancelled deadlines do not pile
  up in the heap (10k schedule-then-cancel leave it bounded).
* **timer threads per pool lease** — the outbound stack's lease and
  request deadlines (``ConnectionPool``/``HttpClient``) are wheel
  entries too: R pooled requests must spawn O(1) sleepers, and the
  wheel must wake only for deadlines that actually come due (the
  earliest-deadline sleeper has no periodic tick, so a run whose
  timers are all schedule-then-cancel costs ~zero wakeups).
* **buffer allocations per request** — keep-alive ingress recvs into
  pooled reusable buffers (``rt.buffers``): R requests on one
  connection must cost O(1) pool allocations total, with every recv a
  ``recv_into`` into a leased buffer (no fresh bytes object per read).
  ``--tracemalloc`` adds a slower spot-check run that reports traced
  heap growth per request.
* **sendfile static egress** (``--mode static``) — static files leave
  via ``sendfile(2)``: zero AIO reads, zero cache fills, and the byte
  stream identical to the in-memory fallback path.

Run stand-alone (merges a ``hotpath`` section into an existing
``BENCH_live_http.json`` when present)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --json BENCH_live_http.json

or under pytest (the CI smoke path)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_hotpath.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import tracemalloc

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.core.do_notation import do          # noqa: E402
from repro.core.monad import pure              # noqa: E402
from repro.http.client import HttpClient       # noqa: E402
from repro.http.message import HttpResponse    # noqa: E402
from repro.http.server import build_live_server  # noqa: E402
from repro.runtime.live_runtime import LiveRuntime  # noqa: E402
from repro.runtime.mesh import MeshNode        # noqa: E402

#: Requests per keep-alive connection for the HTTP point.
HTTP_REQUESTS = 200
#: Concurrent casts per round and rounds for the mesh point.
MESH_CASTS_PER_ROUND = 16
MESH_ROUNDS = 25
#: Sequential mesh calls for the timer-wheel point.
TIMER_CALLS = 200
#: Schedule-then-cancel iterations for the heap-bound check.
TIMER_CHURN = 10_000
#: Pooled HttpClient requests for the pool-lease point.
POOL_REQUESTS = 200
#: Keep-alive requests for the ingress buffer-reuse point.
INGRESS_REQUESTS = 200
#: Keep-alive static GETs for the sendfile point.
STATIC_REQUESTS = 50
#: Static file size for the sendfile point.
STATIC_BYTES = 64 * 1024


class _ChunkedHandler:
    """A small chunked body: header + chunks + trailer in one flush."""

    def respond(self, request):
        return pure(HttpResponse(
            200, chunks=iter([b"alpha-", b"beta-", b"gamma-", b"delta"])
        ))


def _drive_http(rt, port, raw_request, responses, marker):
    """One monadic keep-alive client issuing ``responses`` requests.

    Returns (client_write_syscalls, collected_bytes): the client writes
    each request with one ``write_all`` (1 syscall on an uncongested
    loopback), counted so the caller can subtract client traffic from
    the process-wide backend counters.
    """
    collected = bytearray()
    finished = []

    @do
    def client():
        conn = yield rt.io.connect(("127.0.0.1", port))
        for _ in range(responses):
            yield rt.io.write_all(conn, raw_request)
            # Read until this response's terminator appears.
            while collected.count(marker) < len(finished) + 1:
                data = yield rt.io.read(conn, 65536)
                if not data:
                    raise AssertionError("server closed early")
                collected.extend(data)
            finished.append(True)
        yield rt.io.close(conn)

    rt.spawn(client(), name="bench-client")
    rt.run(until=lambda: len(finished) >= responses, idle_timeout=30.0)
    assert len(finished) == responses, "client never completed"
    return responses, bytes(collected)


def run_http_writes(requests: int = HTTP_REQUESTS) -> dict:
    """Writes-per-response for fixed-length, chunked, and error paths."""
    rt = LiveRuntime(uncaught="store")
    try:
        body = b"x" * 512
        listener = rt.make_listener()
        server = build_live_server(rt, listener,
                                   site={"/bench.txt": body})
        rt.spawn(server.main(), name="server")
        port = listener.getsockname()[1]
        raw = b"GET /bench.txt HTTP/1.1\r\nHost: bench\r\n\r\n"

        def measure(path_raw, marker, count):
            before = rt.backend.write_syscalls
            client_writes, collected = _drive_http(
                rt, port, path_raw, count, marker
            )
            server_writes = (
                rt.backend.write_syscalls - before - client_writes
            )
            return server_writes / count, collected

        fixed_ratio, _ = measure(raw, body, requests)

        chunked_listener = rt.make_listener()
        chunked = build_live_server(rt, chunked_listener,
                                    handler=_ChunkedHandler())
        rt.spawn(chunked.main(), name="chunked-server")
        chunked_port = chunked_listener.getsockname()[1]
        before = rt.backend.write_syscalls
        client_writes, collected = _drive_http(
            rt, chunked_port,
            b"GET /stream HTTP/1.1\r\nHost: bench\r\n\r\n",
            requests, b"\r\n0\r\n\r\n",
        )
        chunked_ratio = (
            rt.backend.write_syscalls - before - client_writes
        ) / requests

        error_ratio, _ = measure(
            b"GET /missing HTTP/1.1\r\nHost: bench\r\n\r\n",
            b"</html>", requests,
        )

        server.stop()
        chunked.stop()
        return {
            "requests": requests,
            "writes_per_response": round(fixed_ratio, 4),
            "writes_per_chunked_response": round(chunked_ratio, 4),
            "writes_per_error_response": round(error_ratio, 4),
            "send_calls": rt.backend.write_calls,
            "sendmsg_calls": rt.backend.writev_calls,
            "sendmsg_bufs": rt.backend.writev_bufs,
        }
    finally:
        rt.shutdown()


def run_mesh_flush(rounds: int = MESH_ROUNDS,
                   casts: int = MESH_CASTS_PER_ROUND) -> dict:
    """Frames-per-flush under bursts of concurrent casts on one link."""
    rt = LiveRuntime(uncaught="store")
    try:
        seen = []

        def recording(body):
            seen.append(body)
            return pure(b"")

        listener_a = rt.make_listener()
        listener_b = rt.make_listener()
        peers = {
            0: ("127.0.0.1", listener_a.getsockname()[1]),
            1: ("127.0.0.1", listener_b.getsockname()[1]),
        }
        node_a = MeshNode(0, rt.io, listener_a, peers,
                          handler=lambda body: pure(b""),
                          timers=rt.timers)
        node_b = MeshNode(1, rt.io, listener_b, peers, handler=recording,
                          timers=rt.timers)
        rt.spawn(node_a.serve(), name="mesh-a")
        rt.spawn(node_b.serve(), name="mesh-b")

        warmed = []

        @do
        def warm():
            yield node_a.call(1, b"warm")
            warmed.append(True)

        rt.spawn(warm())
        rt.run(until=lambda: bool(warmed), idle_timeout=10.0)

        done = []

        @do
        def one_cast(payload):
            yield node_a.cast(1, payload)
            done.append(True)

        expected = 1  # the warm call
        for round_index in range(rounds):
            for cast_index in range(casts):
                rt.spawn(one_cast(b"r%03d-c%03d" % (round_index,
                                                    cast_index)))
            expected += casts
            rt.run(
                until=lambda: len(done) >= expected - 1
                and len(seen) >= expected,
                idle_timeout=10.0,
            )
        assert len(seen) == 1 + rounds * casts, (
            f"receiver saw {len(seen)} of {1 + rounds * casts} frames"
        )
        stats = node_a.stats
        node_a.stop()
        node_b.stop()
        return {
            "rounds": rounds,
            "casts_per_round": casts,
            "frames_sent": stats.frames_sent,
            "flushes": stats.flushes,
            "frames_per_flush": round(stats.frames_per_flush, 3),
            "batched_flushes": stats.batched_flushes,
            "max_frames_per_flush": stats.max_frames_per_flush,
        }
    finally:
        rt.shutdown()


def run_timer_wheel(calls: int = TIMER_CALLS) -> dict:
    """What one mesh call costs the wheel and the socket: one heap
    entry, no fork, about one read per frame received."""
    rt = LiveRuntime(uncaught="store")
    try:
        names: list = []
        original = rt.sched._new_tcb

        def recording(name):
            names.append(name or "")
            return original(name)

        rt.sched._new_tcb = recording
        listener_a = rt.make_listener()
        listener_b = rt.make_listener()
        peers = {
            0: ("127.0.0.1", listener_a.getsockname()[1]),
            1: ("127.0.0.1", listener_b.getsockname()[1]),
        }
        echo = lambda body: pure(b"ok")  # noqa: E731
        node_a = MeshNode(0, rt.io, listener_a, peers, handler=echo,
                          timers=rt.timers)
        node_b = MeshNode(1, rt.io, listener_b, peers, handler=echo,
                          timers=rt.timers)
        rt.spawn(node_a.serve(), name="mesh-a")
        rt.spawn(node_b.serve(), name="mesh-b")
        done = []

        @do
        def caller():
            for index in range(calls):
                yield node_a.call(1, b"t%05d" % index)
            done.append(True)

        rt.spawn(caller())
        rt.run(until=lambda: bool(done), idle_timeout=30.0)
        assert done, "mesh calls never completed"
        sleeper_forks = sum(1 for name in names if "sleeper" in name)
        timers_scheduled = rt.timers.scheduled
        frames_received = (node_a.stats.frames_received
                           + node_b.stats.frames_received)
        reads = rt.backend.read_calls

        # The call pattern at rate, without the sockets: every deadline
        # is cancelled long before it is due.
        churned = []

        @do
        def churn():
            for _ in range(TIMER_CHURN):
                handle = yield rt.timers.schedule(5.0, lambda: None)
                handle.cancel()
            churned.append(True)

        rt.spawn(churn())
        rt.run(until=lambda: bool(churned), idle_timeout=30.0)
        assert churned, "timer churn never completed"
        node_a.stop()
        node_b.stop()
        return {
            "calls": calls,
            "timers_scheduled": timers_scheduled,
            "timers_per_call": round(timers_scheduled / calls, 4),
            # Everything beyond the one deadline per call would be a
            # write watchdog: none on a link that never blocks.
            "watchdog_timers": timers_scheduled - calls,
            "reads_per_frame": round(reads / frames_received, 4),
            "sleeper_spawns": rt.timers.sleeper_spawns,
            "sleeper_forks_observed": sleeper_forks,
            "timer_threads_per_call": round(sleeper_forks / calls, 4),
            "churn": TIMER_CHURN,
            "armed_after_churn": rt.timers.armed,
        }
    finally:
        rt.shutdown()


def run_pool_leases(requests: int = POOL_REQUESTS) -> dict:
    """Timer threads per pooled request: every lease and request
    deadline must be a wheel entry (schedule-then-cancel), never a
    fork — and the earliest-deadline sleeper must not tick while those
    never-due deadlines sit in the heap."""
    rt = LiveRuntime(uncaught="store")
    try:
        names: list = []
        original = rt.sched._new_tcb

        def recording(name):
            names.append(name or "")
            return original(name)

        rt.sched._new_tcb = recording
        listener = rt.make_listener()
        server = build_live_server(rt, listener,
                                   site={"/lease.txt": b"y" * 256})
        rt.spawn(server.main(), name="server")
        port = listener.getsockname()[1]
        client = HttpClient(rt.io, rt.timers, ("127.0.0.1", port),
                            pool_size=2, name="bench-http")
        done = []

        @do
        def driver():
            for _ in range(requests):
                response = yield client.get("/lease.txt")
                assert response.status == 200
            yield client.close()
            done.append(True)

        rt.spawn(driver(), name="bench-driver")
        rt.run(until=lambda: bool(done), idle_timeout=60.0)
        assert done, "pooled requests never completed"
        sleeper_forks = sum(1 for name in names if "sleeper" in name)
        wheel = rt.timers.stats()
        server.stop()
        return {
            "requests": requests,
            "pool_dials": client.pool.dials,
            "pool_reuses": client.pool.reuses,
            "reuse_ratio": round(client.pool.reuse_ratio, 4),
            "timers_scheduled": wheel["scheduled"],
            "wheel_fired": wheel["fired"],
            "wheel_wakeups": wheel["wakeups"],
            "sleeper_forks_observed": sleeper_forks,
            "timer_threads_per_lease": round(sleeper_forks / requests, 4),
        }
    finally:
        rt.shutdown()


def run_ingress_buffers(requests: int = INGRESS_REQUESTS,
                        spot_check: bool = False) -> dict:
    """Pool allocations per keep-alive request on the fixed-response
    path: the pooled recv must reuse one buffer across the whole
    connection, not allocate per read."""
    rt = LiveRuntime(uncaught="store")
    try:
        body = b"x" * 512
        listener = rt.make_listener()
        server = build_live_server(rt, listener,
                                   site={"/bench.txt": body})
        rt.spawn(server.main(), name="server")
        port = listener.getsockname()[1]
        raw = b"GET /bench.txt HTTP/1.1\r\nHost: bench\r\n\r\n"

        pool_before = rt.buffers.stats()
        recv_into_before = rt.backend.recv_into_calls
        if spot_check:
            tracemalloc.start()
            _cur, traced_before = tracemalloc.get_traced_memory()
        _drive_http(rt, port, raw, requests, body)
        if spot_check:
            _cur, traced_after = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        pool_after = rt.buffers.stats()
        server.stop()

        allocations = pool_after["allocations"] - pool_before["allocations"]
        leases = pool_after["leases"] - pool_before["leases"]
        reuses = pool_after["reuses"] - pool_before["reuses"]
        recv_intos = rt.backend.recv_into_calls - recv_into_before
        point = {
            "requests": requests,
            "pool_allocations": allocations,
            "pool_leases": leases,
            "pool_reuses": reuses,
            "pool_in_use_at_end": pool_after["in_use"],
            "pool_high_water": pool_after["high_water"],
            "recv_into_calls": recv_intos,
            "recv_into_per_response": round(recv_intos / requests, 4),
            "allocs_per_request": round(allocations / requests, 4),
        }
        if spot_check:
            # Includes the in-process client's own traffic: a spot
            # check on heap churn, not a tight bound.
            point["tracemalloc_kib_per_request"] = round(
                (traced_after - traced_before) / 1024 / requests, 2
            )
        return point
    finally:
        rt.shutdown()


def run_static_sendfile(requests: int = STATIC_REQUESTS,
                        size: int = STATIC_BYTES) -> dict:
    """Static egress via ``sendfile(2)``: no AIO reads, no cache fill,
    and byte parity with the in-memory fallback path."""
    with tempfile.TemporaryDirectory(prefix="bench-static-") as docroot:
        marker = b"--response-tail--"
        body = (b"S" * (size - len(marker))) + marker
        with open(os.path.join(docroot, "static.bin"), "wb") as handle:
            handle.write(body)
        raw = b"GET /static.bin HTTP/1.1\r\nHost: bench\r\n\r\n"

        def serve(sendfile: bool) -> tuple[bytes, dict]:
            rt = LiveRuntime(uncaught="store")
            try:
                listener = rt.make_listener()
                server = build_live_server(rt, listener, docroot=docroot,
                                           sendfile=sendfile)
                rt.spawn(server.main(), name="server")
                port = listener.getsockname()[1]
                _writes, collected = _drive_http(
                    rt, port, raw, requests, marker
                )
                server.stop()
                return collected, {
                    "sendfile_calls": rt.backend.sendfile_calls,
                    "sendfile_bytes": rt.backend.sendfile_bytes,
                    "aio_reads": server.stats.aio_reads,
                    "cache_entries": 1 if server.cache.get(
                        "static.bin") is not None else 0,
                }
            finally:
                rt.shutdown()

        via_sendfile, stats = serve(sendfile=True)
        via_fallback, fallback_stats = serve(sendfile=False)
        return {
            "requests": requests,
            "file_bytes": size,
            "sendfile_calls": stats["sendfile_calls"],
            "sendfile_bytes": stats["sendfile_bytes"],
            "sendfile_per_response": round(
                stats["sendfile_calls"] / requests, 4),
            "aio_reads": stats["aio_reads"],
            "cache_entries": stats["cache_entries"],
            "fallback_sendfile_calls": fallback_stats["sendfile_calls"],
            "fallback_aio_reads": fallback_stats["aio_reads"],
            "byte_identical_to_fallback": via_sendfile == via_fallback,
        }


# ----------------------------------------------------------------------
# Pytest entry points (the CI smoke path).
# ----------------------------------------------------------------------
def test_hotpath_http_single_write_per_response(report):
    point = run_http_writes()
    report(
        f"HTTP egress ({point['requests']} keep-alive requests/path): "
        f"{point['writes_per_response']:.2f} writes/response fixed, "
        f"{point['writes_per_chunked_response']:.2f} chunked, "
        f"{point['writes_per_error_response']:.2f} error "
        f"({point['sendmsg_calls']} sendmsg / {point['send_calls']} send)"
    )
    # The headline claim: header+body = one gathered syscall.  A tiny
    # slack absorbs rare loopback EAGAIN retries.
    assert point["writes_per_response"] <= 1.05
    assert point["writes_per_chunked_response"] <= 1.05
    assert point["writes_per_error_response"] <= 1.05
    assert point["sendmsg_calls"] > 0, "vectored path never engaged"


def test_hotpath_mesh_flush_batching(report):
    point = run_mesh_flush()
    report(
        f"Mesh egress ({point['rounds']}x{point['casts_per_round']} "
        f"concurrent casts): {point['frames_per_flush']:.1f} frames/flush "
        f"(max {point['max_frames_per_flush']}, "
        f"{point['batched_flushes']} batched of {point['flushes']})"
    )
    assert point["frames_per_flush"] > 1.0, "flush coalescing never engaged"
    assert point["batched_flushes"] > 0
    assert point["max_frames_per_flush"] > 1


def test_hotpath_timer_wheel_no_thread_per_call(report):
    point = run_timer_wheel()
    report(
        f"Timer wheel ({point['calls']} mesh calls): "
        f"{point['timers_per_call']:.2f} timers/call "
        f"({point['watchdog_timers']} watchdog), "
        f"{point['reads_per_frame']:.2f} reads/frame, "
        f"{point['sleeper_forks_observed']} sleeper fork(s); "
        f"{point['armed_after_churn']} heap entries after "
        f"{point['churn']} schedule-then-cancel"
    )
    # One deadline per call and nothing else: the write watchdog is
    # armed only when a write is about to park.
    assert point["timers_per_call"] == 1
    assert point["watchdog_timers"] == 0
    # The buffered reader parks before reading an empty socket: no
    # 4-byte read, body read and EAGAIN per frame.
    assert point["reads_per_frame"] <= 1.1
    # O(1) sleepers for O(calls) timers (a couple of idle->busy
    # transitions are fine; one thread per call is not) — through the
    # schedule-then-cancel churn too.
    assert point["sleeper_forks_observed"] <= 5
    assert point["sleeper_spawns"] <= 5
    assert point["timer_threads_per_call"] <= 0.05
    # Cancelled deadlines leave the heap long before they are due.
    assert point["armed_after_churn"] <= 200


def test_hotpath_pool_lease_no_timer_thread(report):
    point = run_pool_leases()
    report(
        f"Pool leases ({point['requests']} pooled requests, "
        f"{point['pool_dials']} dials, reuse {point['reuse_ratio']:.3f}): "
        f"{point['timers_scheduled']} timers as heap entries, "
        f"{point['sleeper_forks_observed']} sleeper fork(s), "
        f"{point['wheel_wakeups']} wheel wakeup(s) for "
        f"{point['wheel_fired']} fired deadline(s)"
    )
    # Every request armed at least its deadline on the wheel…
    assert point["timers_scheduled"] >= point["requests"]
    # …the connections were actually reused (so leases, not dials,
    # dominate)…
    assert point["pool_reuses"] >= point["requests"] - point["pool_dials"]
    # …with O(1) sleeper threads…
    assert point["sleeper_forks_observed"] <= 5
    assert point["timer_threads_per_lease"] <= 0.05
    # …and the wheel woke only for deadlines that came due: the run's
    # timers are all schedule-then-cancel, so wakeups track fired
    # deadlines (plus a couple of re-target turns), not request count.
    assert point["wheel_wakeups"] <= point["wheel_fired"] + 5, (
        f"{point['wheel_wakeups']} wheel wakeups for "
        f"{point['wheel_fired']} fired deadlines: the sleeper is "
        f"ticking instead of sleeping to the earliest deadline"
    )


def test_hotpath_ingress_buffer_reuse(report):
    point = run_ingress_buffers()
    report(
        f"Ingress buffers ({point['requests']} keep-alive requests): "
        f"{point['pool_allocations']} pool allocation(s), "
        f"{point['pool_reuses']} reuse(s), "
        f"{point['recv_into_per_response']:.2f} recv_into/response, "
        f"high water {point['pool_high_water']}"
    )
    # The headline claim: a keep-alive connection reuses ONE pooled
    # buffer — allocations stay O(1), not O(requests).
    assert point["allocs_per_request"] <= 1.0
    assert point["pool_allocations"] <= 4
    assert point["recv_into_calls"] > 0, "pooled recv path never engaged"
    assert point["pool_reuses"] > 0, "pool never reused a buffer"
    assert point["pool_in_use_at_end"] == 0, "leaked buffer lease(s)"


def test_hotpath_static_sendfile(report):
    point = run_static_sendfile()
    report(
        f"Static egress ({point['requests']} GETs of "
        f"{point['file_bytes']} B): {point['sendfile_calls']} sendfile "
        f"call(s) / {point['sendfile_bytes']} B, {point['aio_reads']} "
        f"AIO read(s), parity={point['byte_identical_to_fallback']}"
    )
    assert point["sendfile_calls"] >= 1, "sendfile path never engaged"
    assert point["sendfile_bytes"] == (
        point["requests"] * point["file_bytes"]
    )
    assert point["aio_reads"] == 0, "sendfile path still read via AIO"
    assert point["cache_entries"] == 0, "sendfile path filled the cache"
    assert point["byte_identical_to_fallback"], (
        "sendfile and in-memory paths diverged"
    )


# ----------------------------------------------------------------------
# Script mode: merge a "hotpath" section into BENCH_live_http.json.
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="In-process syscalls-per-op microbench for the "
                    "gathered-write egress path."
    )
    parser.add_argument("--json", dest="json_path", default=None,
                        help="merge results into this JSON file as the "
                             "'hotpath' section (created if missing)")
    parser.add_argument("--mode", choices=("all", "egress", "ingress",
                                           "static"), default="all",
                        help="which points to run: 'egress' = the "
                             "write/mesh/timer/pool points, 'ingress' = "
                             "pooled receive buffers, 'static' = the "
                             "sendfile path (default: all)")
    parser.add_argument("--tracemalloc", action="store_true",
                        help="add a traced-heap spot check to the "
                             "ingress point (slower)")
    args = parser.parse_args(argv)

    section: dict = {}
    if args.mode in ("all", "egress"):
        http_point = run_http_writes()
        print(f"http: {http_point['writes_per_response']:.2f} "
              f"writes/response "
              f"(chunked {http_point['writes_per_chunked_response']:.2f}, "
              f"error {http_point['writes_per_error_response']:.2f})")
        mesh_point = run_mesh_flush()
        print(f"mesh: {mesh_point['frames_per_flush']:.1f} frames/flush, "
              f"max {mesh_point['max_frames_per_flush']}")
        timer_point = run_timer_wheel()
        print(f"timers: {timer_point['timers_per_call']:.2f} timers/call, "
              f"{timer_point['reads_per_frame']:.2f} reads/frame, "
              f"{timer_point['sleeper_forks_observed']} sleeper "
              f"fork(s) for {timer_point['calls']} calls")
        pool_point = run_pool_leases()
        print(f"pool: {pool_point['sleeper_forks_observed']} sleeper "
              f"fork(s) and {pool_point['wheel_wakeups']} wheel wakeup(s) "
              f"for {pool_point['requests']} pooled requests "
              f"(reuse {pool_point['reuse_ratio']:.3f})")
        section.update({
            "http": http_point,
            "mesh": mesh_point,
            "timers": timer_point,
            "pool": pool_point,
        })
    if args.mode in ("all", "ingress"):
        ingress_point = run_ingress_buffers(spot_check=args.tracemalloc)
        line = (f"ingress: {ingress_point['pool_allocations']} pool "
                f"allocation(s) / {ingress_point['requests']} requests "
                f"({ingress_point['pool_reuses']} reuses, "
                f"{ingress_point['recv_into_per_response']:.2f} "
                f"recv_into/response)")
        if "tracemalloc_kib_per_request" in ingress_point:
            line += (f", {ingress_point['tracemalloc_kib_per_request']} "
                     f"KiB traced/request")
        print(line)
        section["ingress"] = ingress_point
    if args.mode in ("all", "static"):
        static_point = run_static_sendfile()
        print(f"static: {static_point['sendfile_calls']} sendfile call(s) "
              f"/ {static_point['requests']} GETs, "
              f"{static_point['aio_reads']} AIO read(s), "
              f"parity={static_point['byte_identical_to_fallback']}")
        section["static"] = static_point
    if args.json_path:
        results: dict = {"bench": "live_http"}
        if os.path.exists(args.json_path):
            with open(args.json_path) as handle:
                results = json.load(handle)
        # Merge, don't replace: a partial --mode run must not drop the
        # other points from an existing results file.
        results.setdefault("hotpath", {}).update(section)
        with open(args.json_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote hotpath section into {args.json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
