"""Live HTTP serving under real load: shards vs throughput, plus overload.

The cluster (``repro.runtime.cluster``) replicates the live runtime across
processes with ``SO_REUSEPORT`` sharding.  This harness measures it from
the outside: several load-generator *processes*, each driving keep-alive
connections over real sockets with back-to-back GETs for a fixed window.

The modes:

* **scale** — clusters of 1, 2 and 4 shards under a fixed load fleet.
  Reported per point: aggregate requests/sec (client-side, completed
  responses only), p50/p99 response latency, and the server-side shard
  counters (via the cluster control pipes), which must account for every
  client-observed response.
* **overload** — a capped cluster (``max_connections`` per shard) offered
  more connections than it admits.  Excess connections are shed with a
  503 + clean close and the clients reconnect; the number reported is the
  p99 of *admitted* requests, which must stay bounded while shedding.
* **kv** — the sharded-state workload: a mesh-enabled 4-shard KV cluster
  (``repro.app.kv``) driven with single-key GETs through the HTTP facade.
  Each response's ``X-Kv-Source`` header says whether the landing shard
  owned the key (*local*) or proxied the op to the owner over the
  shard-to-shard mesh, so the harness reports rps/p50/p99 for the two
  paths separately, cross-checked against the server-side owned/proxied
  counters.  The kv mode also runs the **replicated** point: a 4-shard
  cluster with ``replication=2`` under a PUT fleet (replicated-write
  rps/p99, split local/proxied by coordinator placement), followed by a
  kill-one-shard availability check — one shard is crashed, every key
  must stay readable and outage-window writes must succeed, and after
  the respawn the hinted-handoff queue must drain to zero (cross-checked
  against the ``/kv-stats`` replica/handoff counters).
* **durability** — the write-ahead-log economics point: the same
  replicated cluster with ``wal_dir`` set, hit with a concurrent write
  burst from a thread fleet.  Every acked write waited for a group
  commit, so the number reported is **fsyncs per acked write** (must
  stay well below 1 — many writers share one ``fsync``), followed by
  the ``kill -9`` drill: one shard gets a real ``SIGKILL`` (no drain,
  no graceful close — the process just stops existing), is respawned,
  replays its log, and every previously acked write must read back
  with the right bytes.
* **cache** — the same replicated cluster spoken to over the memcache
  wire protocol (``repro.cache``): a fleet of blocking memcache clients
  sends pipelined bursts of multi-key ``get`` commands (one write per
  burst) and the harness reports per-command rps, per-burst p50/p99, and
  the server-side batching ratio — response frames per gathered egress
  write — which must stay above 1 on pipelined load.
* **gateway** — the outbound stack end to end: a static upstream
  cluster behind a gateway cluster (``repro.app.gateway`` — connection
  pools, keep-alive ``HttpClient``, in-flight GET coalescing), driven
  by a keep-alive GET fleet concentrated on a shared hot path.
  Reported: client rps/p50/p99, the connection-reuse ratio of the
  gateway→upstream pools (must stay ≥ 0.9 — keep-alive is the point),
  and coalescing effectiveness (client requests per upstream fetch,
  which must exceed 1: duplicate concurrent GETs collapse).

Run under pytest (the CI smoke path) or directly as a script::

    python benchmarks/bench_live_http.py --mode all \
        --json BENCH_live_http.json --duration 0.8 --deadline 240

The script self-terminates: ``--duration`` bounds each measurement window
and ``--deadline`` bounds the whole run (remaining points are skipped and
recorded), so no external ``timeout`` wrapper is needed.

``REPRO_BENCH_SCALE`` (or ``--scale``) lengthens the measurement window.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time

from conftest import scale

from repro.api import ClusterServer, build_gateway, build_kv, build_server
from repro.bench.harness import Series, format_table
from repro.cache.client import BlockingMemcacheClient
from repro.http.blocking_client import (
    BlockingHttpClient,
    read_full_response,
    read_response,
)

SHARD_POINTS = [1, 2, 4]
LOAD_PROCESSES = 6
CONNECTIONS_PER_PROCESS = 4
REQUEST = b"GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n"
SITE = {"index.html": b"<html>" + b"x" * 1024 + b"</html>"}

# KV mode: a mesh-enabled sharded-state cluster under single-key GETs.
KV_SHARDS = 4
KV_PROCESSES = 4
KV_CONNECTIONS = 3
KV_KEYS = 48
KV_VALUE = b"v" * 512

# Replicated KV point: N-successor replication under a PUT fleet, plus
# the kill-one-shard availability / hinted-handoff check.
KV_REPL_SHARDS = 4
KV_REPL_FACTOR = 2
KV_REPL_PROCESSES = 3
KV_REPL_CONNECTIONS = 2
KV_REPL_KEYS = 32
#: How long to wait for hinted handoff to drain after the respawn.
KV_REPL_DRAIN_DEADLINE = 20.0

# Durability mode: WAL group-commit economics + the kill -9 drill.
DURABILITY_SHARDS = 4
DURABILITY_REPL = 2
DURABILITY_WRITERS = 200
DURABILITY_WRITES_PER_WRITER = 1      # 200 offered writes per burst
DURABILITY_VALUE = b"d" * 256
#: Group-commit deadline: a deliberately wider window than the 5 ms
#: default, trading a few ms of ack latency for far fewer disk barriers
#: (the knob rides ClusterConfig -> factory like ``wal_dir`` does).
DURABILITY_FLUSH_INTERVAL = 0.02
#: Acked-write durability must come cheap: the group-commit gate.
DURABILITY_FSYNC_RATIO_MAX = 0.25
#: How long to wait for hints to drain and the WAL replay to report.
DURABILITY_DRAIN_DEADLINE = 20.0

# Cache mode: the memcache front-end under pipelined multi-key gets.
CACHE_SHARDS = 4
CACHE_PROCESSES = 4
CACHE_CONNECTIONS = 2
CACHE_KEYS = 48
CACHE_VALUE = b"v" * 256
#: ``get`` commands per pipelined burst (one write, N replies).
CACHE_PIPELINE_DEPTH = 8
#: Keys per multi-key ``get``.
CACHE_KEYS_PER_GET = 4

# Gateway mode: a reverse-proxy cluster in front of a static cluster.
GATEWAY_UPSTREAM_SHARDS = 2
GATEWAY_SHARDS = 2
GATEWAY_PROCESSES = 4
GATEWAY_CONNECTIONS = 3
GATEWAY_POOL_SIZE = 4
#: Every fourth GET takes the cold path; the rest share the hot path,
#: so concurrent misses pile onto one upstream fetch (coalescing).
GATEWAY_SITE = {"hot.html": b"H" * 2048, "cold.html": b"c" * 512}

# Overload mode: per-shard admission caps well below the offered load.
OVERLOAD_SHARDS = 2
OVERLOAD_CAP_PER_SHARD = 8
OVERLOAD_PROCESSES = 6
OVERLOAD_CONNECTIONS = 6          # 36 offered vs 16 admitted
#: p99 bound (ms) for admitted requests while the cluster sheds excess.
OVERLOAD_P99_BOUND_MS = 500.0


def app_factory(ctx):
    return build_server(ctx=ctx, site=SITE)


def capped_app_factory(ctx):
    return build_server(
        ctx=ctx, site=SITE, max_connections=OVERLOAD_CAP_PER_SHARD
    )


def kv_factory(ctx):
    return build_kv(ctx=ctx)


# ----------------------------------------------------------------------
# Scale mode: uncapped cluster, fixed keep-alive fleet.
# ----------------------------------------------------------------------
def _load_process(port, connections, duration, barrier, result_pipe) -> None:
    """One load generator: keep-alive conns driven with sequential GETs."""
    try:
        socks = [
            socket.create_connection(("127.0.0.1", port), timeout=10)
            for _ in range(connections)
        ]
    except OSError:
        barrier.abort()  # siblings must not wait for a generator that died
        result_pipe.send([])
        return
    buffers = [bytearray() for _ in socks]
    for sock in socks:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        # All generators connected: start the clock together.
        barrier.wait(timeout=30)
    except Exception:
        result_pipe.send([])
        return
    latencies = []
    deadline = time.monotonic() + duration
    try:
        while time.monotonic() < deadline:
            for sock, buffer in zip(socks, buffers):
                begin = time.perf_counter()
                sock.sendall(REQUEST)
                read_response(sock, buffer)
                latencies.append(time.perf_counter() - begin)
    except OSError:
        pass  # a shard vanished mid-run: report what completed
    for sock in socks:
        sock.close()
    result_pipe.send(latencies)
    result_pipe.close()


def _percentiles(latencies: list[float], duration: float) -> dict:
    latencies.sort()
    count = len(latencies)
    return {
        "requests": count,
        "rps": count / duration,
        "p50_ms": latencies[count // 2] * 1e3 if count else float("nan"),
        "p99_ms": latencies[min(count - 1, (count * 99) // 100)] * 1e3
        if count else float("nan"),
    }


def _fan_out(worker, procs: int, worker_args: tuple, duration: float) -> list:
    """Spawn ``procs`` load processes running ``worker`` behind a shared
    start barrier; return their result payloads (one per process that
    reported).  ``worker`` receives ``(*worker_args, barrier, pipe)``."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(procs)
    pipes, children = [], []
    for _ in range(procs):
        receiver, sender = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker, args=(*worker_args, barrier, sender)
        )
        proc.start()
        sender.close()
        pipes.append(receiver)
        children.append(proc)
    payloads = []
    for receiver in pipes:
        # Bounded wait: a generator that crashed outright (no result at
        # all) must not hang the harness.
        if receiver.poll(duration + 60):
            payloads.append(receiver.recv())
    for proc in children:
        proc.join(timeout=10)
        if proc.is_alive():
            proc.terminate()
    return payloads


def drive_load(port: int, duration: float) -> dict:
    """Fan out the load processes; return count + latency percentiles."""
    payloads = _fan_out(
        _load_process, LOAD_PROCESSES,
        (port, CONNECTIONS_PER_PROCESS, duration), duration,
    )
    latencies = [latency for payload in payloads for latency in payload]
    return _percentiles(latencies, duration)


def run_point(shards: int, duration: float, poller: str = "auto") -> dict:
    """One cluster of ``shards`` processes under the full load fleet."""
    cluster = ClusterServer(app_factory, shards=shards, poller=poller)
    cluster.start()
    try:
        result = drive_load(cluster.port, duration)
        server = cluster.stats()["aggregate"]
    finally:
        cluster.stop()
    result["server_requests"] = server["requests"]
    result["server_accepted"] = server["accepted"]
    result["workers_reporting"] = server["workers_reporting"]
    return result


# ----------------------------------------------------------------------
# Overload mode: capped cluster, reconnecting fleet, admitted-only p99.
# ----------------------------------------------------------------------
def _overload_process(port, connections, duration, barrier, result_pipe):
    """Open-loop-ish overload driver: each shed/failed connection is
    replaced, so the cluster sees sustained admission pressure."""

    def connect():
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=5)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock, bytearray()
        except OSError:
            return None

    slots = [connect() for _ in range(connections)]
    try:
        barrier.wait(timeout=30)
    except Exception:
        result_pipe.send({"latencies": [], "shed": 0})
        return
    latencies: list[float] = []
    shed = 0
    deadline = time.monotonic() + duration
    while time.monotonic() < deadline:
        for index in range(connections):
            if slots[index] is None:
                slots[index] = connect()
                if slots[index] is None:
                    continue
            sock, buffer = slots[index]
            begin = time.perf_counter()
            try:
                sock.sendall(REQUEST)
                status, _body = read_response(sock, buffer)
            except (ConnectionError, OSError):
                shed += 1  # reset/EOF from a shed connection
                sock.close()
                slots[index] = None
                continue
            if "503" in status:
                shed += 1  # clean shed: 503 + Connection: close
                sock.close()
                slots[index] = None
                continue
            latencies.append(time.perf_counter() - begin)
    for slot in slots:
        if slot is not None:
            slot[0].close()
    result_pipe.send({"latencies": latencies, "shed": shed})
    result_pipe.close()


def drive_overload(port: int, duration: float) -> dict:
    payloads = _fan_out(
        _overload_process, OVERLOAD_PROCESSES,
        (port, OVERLOAD_CONNECTIONS, duration), duration,
    )
    latencies: list[float] = []
    client_shed = 0
    for payload in payloads:
        latencies.extend(payload["latencies"])
        client_shed += payload["shed"]
    result = _percentiles(latencies, duration)
    result["client_shed"] = client_shed
    return result


def run_overload(duration: float, poller: str = "auto") -> dict:
    """The capped cluster under sustained admission pressure."""
    cluster = ClusterServer(
        capped_app_factory, shards=OVERLOAD_SHARDS, poller=poller
    )
    cluster.start()
    try:
        result = drive_overload(cluster.port, duration)
        aggregate = cluster.stats()["aggregate"]
    finally:
        cluster.stop()
    result["shards"] = OVERLOAD_SHARDS
    result["cap_per_shard"] = OVERLOAD_CAP_PER_SHARD
    result["offered_connections"] = OVERLOAD_PROCESSES * OVERLOAD_CONNECTIONS
    result["server_shed"] = aggregate["shed"]
    result["server_requests"] = aggregate["requests"]
    result["active_at_end"] = aggregate["active"]
    result["saturation_max"] = aggregate["saturation_max"]
    result["workers_reporting"] = aggregate["workers_reporting"]
    return result


# ----------------------------------------------------------------------
# KV mode: sharded state, local hits vs mesh-proxied ops.
# ----------------------------------------------------------------------
def _kv_request(sock, buffer, key: str) -> tuple[str, bool]:
    """One ``GET /kv/<key>``; returns (status_line, proxied?)."""
    sock.sendall(
        f"GET /kv/{key} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
    )
    status, headers, _body = read_full_response(sock, buffer)
    return status, headers.get("x-kv-source") == "proxied"


def _kv_load_process(port, connections, duration, barrier, result_pipe):
    """Keep-alive GET load over the KV facade, latency split by source."""
    try:
        socks = [
            socket.create_connection(("127.0.0.1", port), timeout=10)
            for _ in range(connections)
        ]
    except OSError:
        barrier.abort()
        result_pipe.send({"local": [], "proxied": [], "errors": 1})
        return
    for sock in socks:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buffers = [bytearray() for _ in socks]
    try:
        barrier.wait(timeout=30)
    except Exception:
        result_pipe.send({"local": [], "proxied": [], "errors": 1})
        return
    local: list[float] = []
    proxied: list[float] = []
    errors = 0
    key_index = 0
    deadline = time.monotonic() + duration
    try:
        while time.monotonic() < deadline:
            for sock, buffer in zip(socks, buffers):
                key = f"bench:{key_index % KV_KEYS}"
                key_index += 1
                begin = time.perf_counter()
                status, was_proxied = _kv_request(sock, buffer, key)
                elapsed = time.perf_counter() - begin
                if not status.endswith("200 OK"):
                    errors += 1
                    continue
                (proxied if was_proxied else local).append(elapsed)
    except OSError:
        pass  # a shard vanished mid-run: report what completed
    for sock in socks:
        sock.close()
    result_pipe.send({"local": local, "proxied": proxied,
                      "errors": errors})
    result_pipe.close()


def run_kv(duration: float, poller: str = "auto") -> dict:
    """The mesh-enabled KV cluster under a keep-alive GET fleet."""
    cluster = ClusterServer(
        kv_factory, shards=KV_SHARDS, mesh=True, poller=poller
    )
    cluster.start()
    try:
        # Populate through the facade: proxying routes each key home.
        writer = BlockingHttpClient(cluster.port)
        for index in range(KV_KEYS):
            status, _headers, _ = writer.request(
                "PUT", f"/kv/bench:{index}", KV_VALUE
            )
            assert status.split()[1] in ("201", "204"), status
        writer.close()
        payloads = _fan_out(
            _kv_load_process, KV_PROCESSES,
            (cluster.port, KV_CONNECTIONS, duration), duration,
        )
        aggregate = cluster.stats()["aggregate"]
    finally:
        cluster.stop()
    local: list[float] = []
    proxied: list[float] = []
    errors = 0
    for payload in payloads:
        local.extend(payload["local"])
        proxied.extend(payload["proxied"])
        errors += payload["errors"]
    result = {
        "shards": KV_SHARDS,
        "keys": KV_KEYS,
        "local": _percentiles(local, duration),
        "proxied": _percentiles(proxied, duration),
        "rps": (len(local) + len(proxied)) / duration,
        "requests": len(local) + len(proxied),
        "client_errors": errors,
        "server_kv_owned": aggregate.get("app", {}).get("kv_owned_ops", 0),
        "server_kv_proxied": aggregate.get("app", {}).get(
            "kv_proxied_ops", 0
        ),
        "mesh_calls": aggregate.get("mesh", {}).get("calls", 0),
        "mesh_served": aggregate.get("mesh", {}).get("served", 0),
        "mesh_timeouts": aggregate.get("mesh", {}).get("timeouts", 0),
        "workers_reporting": aggregate["workers_reporting"],
    }
    return result


# ----------------------------------------------------------------------
# Replicated KV mode: write fan-out + kill-one-shard availability.
# ----------------------------------------------------------------------
def _kv_put(sock, buffer, key: str, value: bytes):
    """One ``PUT /kv/<key>``; returns (status_line, headers)."""
    sock.sendall(
        (f"PUT /kv/{key} HTTP/1.1\r\nHost: bench\r\n"
         f"Content-Length: {len(value)}\r\n\r\n").encode() + value
    )
    status, headers, _body = read_full_response(sock, buffer)
    return status, headers


def _kv_write_process(port, connections, duration, barrier, result_pipe):
    """Keep-alive PUT load over the replicated KV facade: replicated
    writes, latency split by coordinator placement (X-Kv-Source)."""
    try:
        socks = [
            socket.create_connection(("127.0.0.1", port), timeout=10)
            for _ in range(connections)
        ]
    except OSError:
        barrier.abort()
        result_pipe.send({"local": [], "proxied": [], "errors": 1,
                          "full_acks": 0, "writes": 0})
        return
    for sock in socks:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buffers = [bytearray() for _ in socks]
    try:
        barrier.wait(timeout=30)
    except Exception:
        result_pipe.send({"local": [], "proxied": [], "errors": 1,
                          "full_acks": 0, "writes": 0})
        return
    local: list[float] = []
    proxied: list[float] = []
    errors = 0
    full_acks = 0
    writes = 0
    key_index = 0
    deadline = time.monotonic() + duration
    try:
        while time.monotonic() < deadline:
            for sock, buffer in zip(socks, buffers):
                key = f"rep:{key_index % KV_REPL_KEYS}"
                key_index += 1
                begin = time.perf_counter()
                status, headers = _kv_put(sock, buffer, key, KV_VALUE)
                elapsed = time.perf_counter() - begin
                if status.split()[1] not in ("201", "204"):
                    errors += 1
                    continue
                writes += 1
                acked = headers.get("x-kv-replicas", "")
                if acked == f"{KV_REPL_FACTOR}/{KV_REPL_FACTOR}":
                    full_acks += 1
                was_proxied = headers.get("x-kv-source") == "proxied"
                (proxied if was_proxied else local).append(elapsed)
    except OSError:
        pass  # a shard vanished mid-run: report what completed
    for sock in socks:
        sock.close()
    result_pipe.send({"local": local, "proxied": proxied,
                      "errors": errors, "full_acks": full_acks,
                      "writes": writes})
    result_pipe.close()


def run_kv_replicated(duration: float, poller: str = "auto") -> dict:
    """Replicated writes under load, then the availability drill: crash
    a shard mid-traffic, require every key readable and outage writes to
    succeed, respawn, and require hinted handoff to drain."""
    cluster = ClusterServer(
        kv_factory, shards=KV_REPL_SHARDS, mesh=True,
        replication=KV_REPL_FACTOR, respawn=False, grace=0.5,
        poller=poller,
    )
    cluster.start()
    try:
        # Populate so the availability pass has a full key set.
        writer = BlockingHttpClient(cluster.port)
        for index in range(KV_REPL_KEYS):
            status, headers, _ = writer.request(
                "PUT", f"/kv/rep:{index}", KV_VALUE
            )
            assert status.split()[1] in ("201", "204"), status
            assert headers.get("x-kv-replicas") == (
                f"{KV_REPL_FACTOR}/{KV_REPL_FACTOR}"
            ), headers
        writer.close()

        # The measured window: a replicated-write fleet.
        payloads = _fan_out(
            _kv_write_process, KV_REPL_PROCESSES,
            (cluster.port, KV_REPL_CONNECTIONS, duration), duration,
        )
        local: list[float] = []
        proxied: list[float] = []
        errors = full_acks = writes = 0
        for payload in payloads:
            local.extend(payload["local"])
            proxied.extend(payload["proxied"])
            errors += payload["errors"]
            full_acks += payload["full_acks"]
            writes += payload["writes"]

        # Kill one shard; every key must stay readable and writes must
        # keep succeeding on the surviving replicas (hints park).
        victim = 1
        cluster.crash_worker(victim)
        crash_deadline = time.monotonic() + 5.0
        while (cluster.worker_pids()[victim] is not None
               and time.monotonic() < crash_deadline):
            time.sleep(0.02)
        unavailable = 0
        outage_write_errors = 0
        drill = BlockingHttpClient(cluster.port)
        for index in range(KV_REPL_KEYS):
            status, _headers, _body = drill.request(
                "GET", f"/kv/rep:{index}"
            )
            if not status.endswith("200 OK"):
                unavailable += 1
        for index in range(KV_REPL_KEYS):
            status, _headers, _ = drill.request(
                "PUT", f"/kv/rep:{index}", KV_VALUE + b"+outage"
            )
            if status.split()[1] not in ("201", "204"):
                outage_write_errors += 1
        drill.close()
        app = cluster.stats()["aggregate"].get("app", {})
        hints_queued = app.get("kv_hints_queued", 0)

        # Respawn (manual monitor tick: deterministic outage window) and
        # wait for the hinted-handoff queue to drain.
        cluster.poll()
        drain_deadline = time.monotonic() + KV_REPL_DRAIN_DEADLINE
        while time.monotonic() < drain_deadline:
            app = cluster.stats()["aggregate"].get("app", {})
            if (app.get("kv_hints_pending", 1) == 0
                    and app.get("kv_hints_replayed", 0) > 0):
                break
            time.sleep(0.1)

        # Post-respawn read pass: the cluster serves every key.
        post_unavailable = 0
        check = BlockingHttpClient(cluster.port)
        for index in range(KV_REPL_KEYS):
            status, _headers, _body = check.request(
                "GET", f"/kv/rep:{index}"
            )
            if not status.endswith("200 OK"):
                post_unavailable += 1
        check.close()
        aggregate = cluster.stats()["aggregate"]
        app = aggregate.get("app", {})
    finally:
        cluster.stop()
    return {
        "shards": KV_REPL_SHARDS,
        "replication": KV_REPL_FACTOR,
        "keys": KV_REPL_KEYS,
        "local": _percentiles(local, duration),
        "proxied": _percentiles(proxied, duration),
        "rps": (len(local) + len(proxied)) / duration,
        "requests": len(local) + len(proxied),
        "writes": writes,
        "full_acks": full_acks,
        "client_errors": errors,
        "unavailable_during_kill": unavailable,
        "outage_write_errors": outage_write_errors,
        "post_respawn_unavailable": post_unavailable,
        "hints_queued": hints_queued,
        "hints_replayed": app.get("kv_hints_replayed", 0),
        "hints_pending_at_end": app.get("kv_hints_pending", 0),
        "replica_writes": app.get("kv_replica_writes", 0),
        "read_repairs": app.get("kv_read_repairs", 0),
        "quorum_failures": app.get("kv_quorum_failures", 0),
        "mesh_write_timeouts": aggregate.get("mesh", {}).get(
            "write_timeouts", 0
        ),
        # Egress batching engagement: replicated fan-out + acks on the
        # shard-to-shard links must coalesce into gathered flushes.
        "mesh_flushes": aggregate.get("mesh", {}).get("flushes", 0),
        "mesh_frames_sent": aggregate.get("mesh", {}).get(
            "frames_sent", 0
        ),
        "mesh_batched_flushes": aggregate.get("mesh", {}).get(
            "batched_flushes", 0
        ),
        "workers_reporting": aggregate["workers_reporting"],
    }


# ----------------------------------------------------------------------
# Durability mode: WAL group-commit economics + the kill -9 drill.
# ----------------------------------------------------------------------
def _durability_writer(port, writer_id, barrier, acked, errors):
    """One burst writer thread: a handful of PUTs over its own keep-alive
    connection.  Appends to the shared ``acked``/``errors`` lists (list
    appends are atomic; no further locking needed)."""
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        barrier.abort()
        errors.append((f"writer-{writer_id}", "connect"))
        return
    buffer = bytearray()
    try:
        barrier.wait(timeout=30)
    except threading.BrokenBarrierError:
        sock.close()
        errors.append((f"writer-{writer_id}", "barrier"))
        return
    for index in range(DURABILITY_WRITES_PER_WRITER):
        key = f"dur:{writer_id}:{index}"
        value = DURABILITY_VALUE + f":{writer_id}:{index}".encode()
        try:
            status, _headers = _kv_put(sock, buffer, key, value)
        except OSError:
            errors.append((key, "io"))
            break
        if status.split()[1] in ("201", "204"):
            acked.append((key, value))
        else:
            errors.append((key, status))
    sock.close()


def run_durability(duration: float, poller: str = "auto") -> dict:
    """The durability point.  Phase one: a concurrent write burst where
    every ack gates on a WAL group commit, so fsyncs-per-acked-write is
    the group-commit batching ratio (parked writers share one disk
    barrier).  Phase two: ``kill -9`` one shard — a real ``SIGKILL``,
    not the cooperative crash command — respawn it, and require every
    acked write readable after log replay, with hinted handoff drained.

    The burst is a fixed 200 writes (not duration-scaled): the gate is a
    ratio, and a fixed burst keeps it comparable across runs."""
    wal_root = tempfile.mkdtemp(prefix="repro-bench-wal-")
    cluster = ClusterServer(
        kv_factory, shards=DURABILITY_SHARDS, mesh=True,
        replication=DURABILITY_REPL, respawn=False, grace=0.5,
        poller=poller, wal_dir=wal_root,
        wal_flush_interval=DURABILITY_FLUSH_INTERVAL,
    )
    cluster.start()
    try:
        before = cluster.stats()["aggregate"].get("app", {})
        barrier = threading.Barrier(DURABILITY_WRITERS)
        acked: list = []
        errors: list = []
        writers = [
            threading.Thread(
                target=_durability_writer,
                args=(cluster.port, writer_id, barrier, acked, errors),
                daemon=True,
            )
            for writer_id in range(DURABILITY_WRITERS)
        ]
        begin = time.monotonic()
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        burst_s = time.monotonic() - begin
        # Every fsync that covered an acked write has already happened
        # (the ack *is* the commit), so the delta is exact.
        after = cluster.stats()["aggregate"].get("app", {})
        fsyncs = after.get("wal_fsyncs", 0) - before.get("wal_fsyncs", 0)
        appends = after.get("wal_appends", 0) - before.get(
            "wal_appends", 0
        )
        fsync_ratio = (fsyncs / len(acked)) if acked else float("inf")

        # The kill -9 drill.  SIGKILL delivers no signal handler, no
        # atexit, no socket drain: whatever was not fsynced is gone.
        victim = 1
        pid = cluster.worker_pids()[victim]
        os.kill(pid, signal.SIGKILL)
        kill_deadline = time.monotonic() + 5.0
        while (cluster.worker_pids()[victim] is not None
               and time.monotonic() < kill_deadline):
            time.sleep(0.02)
        cluster.poll()  # manual respawn: deterministic outage window
        respawned = cluster.worker_pids()[victim] is not None

        drain_deadline = time.monotonic() + DURABILITY_DRAIN_DEADLINE
        app: dict = {}
        while time.monotonic() < drain_deadline:
            app = cluster.stats()["aggregate"].get("app", {})
            if (app.get("kv_hints_pending", 1) == 0
                    and app.get("wal_replayed_records", 0) > 0):
                break
            time.sleep(0.1)

        lost: list[str] = []
        check = BlockingHttpClient(cluster.port)
        for key, value in acked:
            status, _headers, body = check.request("GET", f"/kv/{key}")
            if not status.endswith("200 OK") or body != value:
                lost.append(key)
        check.close()
        app = cluster.stats()["aggregate"].get("app", {})
    finally:
        cluster.stop()
        shutil.rmtree(wal_root, ignore_errors=True)
    recovered = bool(
        respawned
        and not lost
        and app.get("kv_hints_pending", 1) == 0
        and app.get("wal_replayed_records", 0) > 0
    )
    return {
        "shards": DURABILITY_SHARDS,
        "replication": DURABILITY_REPL,
        "writers": DURABILITY_WRITERS,
        "writes_offered": DURABILITY_WRITERS * DURABILITY_WRITES_PER_WRITER,
        "acked_writes": len(acked),
        "client_errors": len(errors),
        "burst_s": round(burst_s, 3),
        "wal_fsyncs": fsyncs,
        "wal_appends": appends,
        "fsyncs_per_acked_write": round(fsync_ratio, 4),
        "records_per_fsync": round(appends / fsyncs, 2) if fsyncs
        else float("nan"),
        "group_commits": app.get("wal_group_commits", 0),
        "group_max_seen": app.get("wal_group_max", 0),
        "kill9_respawned": respawned,
        "kill9_lost_acked_writes": len(lost),
        "kill9_recovered": recovered,
        "wal_replayed_records": app.get("wal_replayed_records", 0),
        "wal_torn_bytes_truncated": app.get(
            "wal_torn_bytes_truncated", 0
        ),
        "hints_pending_at_end": app.get("kv_hints_pending", 0),
    }


# ----------------------------------------------------------------------
# Cache mode: the memcache front-end under pipelined multi-key gets.
# ----------------------------------------------------------------------
def _cache_load_process(port, connections, duration, barrier, result_pipe):
    """Pipelined multi-key ``get`` load over the memcache front-end.

    Each burst is ``CACHE_PIPELINE_DEPTH`` get commands of
    ``CACHE_KEYS_PER_GET`` keys, sent in ONE write; latency is measured
    per burst (write to last END), which is the shape the gathered-write
    egress is supposed to win on.
    """
    try:
        clients = [
            BlockingMemcacheClient(port, timeout=10)
            for _ in range(connections)
        ]
    except OSError:
        barrier.abort()
        result_pipe.send({"latencies": [], "requests": 0,
                          "hits": 0, "misses": 0, "errors": 1})
        return
    try:
        barrier.wait(timeout=30)
    except Exception:
        result_pipe.send({"latencies": [], "requests": 0,
                          "hits": 0, "misses": 0, "errors": 1})
        return
    latencies: list[float] = []
    requests = hits = misses = errors = 0
    key_index = 0
    deadline = time.monotonic() + duration
    try:
        while time.monotonic() < deadline:
            for client in clients:
                batches = []
                for _ in range(CACHE_PIPELINE_DEPTH):
                    batches.append([
                        f"cache:{(key_index + offset) % CACHE_KEYS}"
                        for offset in range(CACHE_KEYS_PER_GET)
                    ])
                    key_index += CACHE_KEYS_PER_GET
                begin = time.perf_counter()
                replies = client.pipeline_get(batches)
                latencies.append(time.perf_counter() - begin)
                requests += len(batches)
                for keys, values in zip(batches, replies):
                    hits += len(values)
                    misses += len(keys) - len(values)
    except OSError:
        errors += 1
    for client in clients:
        client.close()
    result_pipe.send({"latencies": latencies, "requests": requests,
                      "hits": hits, "misses": misses, "errors": errors})
    result_pipe.close()


def run_cache(duration: float, poller: str = "auto") -> dict:
    """The replicated cluster spoken to over the memcache wire protocol:
    populate with pipelined sets, then a pipelined multi-get fleet."""
    cluster = ClusterServer(
        kv_factory, shards=CACHE_SHARDS, mesh=True,
        replication=2, write_quorum=1,
        cache_port=0, cache_protocol="memcache", poller=poller,
    )
    cluster.start()
    try:
        with BlockingMemcacheClient(cluster.cache_port) as writer:
            stored = writer.pipeline_set(
                [(f"cache:{index}", CACHE_VALUE)
                 for index in range(CACHE_KEYS)]
            )
            assert stored == CACHE_KEYS, f"populate stored {stored}"
        payloads = _fan_out(
            _cache_load_process, CACHE_PROCESSES,
            (cluster.cache_port, CACHE_CONNECTIONS, duration), duration,
        )
        aggregate = cluster.stats()["aggregate"]
    finally:
        cluster.stop()
    latencies: list[float] = []
    requests = hits = misses = errors = 0
    for payload in payloads:
        latencies.extend(payload["latencies"])
        requests += payload["requests"]
        hits += payload["hits"]
        misses += payload["misses"]
        errors += payload["errors"]
    app = aggregate.get("app", {})
    send_batches = app.get("cache_send_batches", 0)
    responses = app.get("cache_responses", 0)
    return {
        "shards": CACHE_SHARDS,
        "keys": CACHE_KEYS,
        "pipeline_depth": CACHE_PIPELINE_DEPTH,
        "keys_per_get": CACHE_KEYS_PER_GET,
        # Burst latency, plus per-command rps (requests counts every
        # pipelined get command, not bursts).
        "burst": _percentiles(latencies, duration),
        "rps": requests / duration,
        "requests": requests,
        "hits": hits,
        "misses": misses,
        "client_errors": errors,
        "server_cache_commands": app.get("cache_commands", 0),
        "server_cache_responses": responses,
        "server_cache_send_batches": send_batches,
        "server_cache_pipelined_batches": app.get(
            "cache_pipelined_batches", 0
        ),
        # The hotpath gate: >1 response frame per gathered egress write.
        "responses_per_batch": (
            responses / send_batches if send_batches else 0.0
        ),
        "server_cache_errors": app.get("cache_errors", 0),
        "workers_reporting": aggregate["workers_reporting"],
    }


# ----------------------------------------------------------------------
# Gateway mode: the outbound stack (pools + HttpClient + coalescing).
# ----------------------------------------------------------------------
def gateway_upstream_factory(ctx):
    return build_server(ctx=ctx, site=GATEWAY_SITE)


def make_gateway_factory(upstream_port: int):
    """A context-style shard factory closing over the upstream port.

    The response cache is disabled (``cache_ttl=0``) so every client GET
    exercises the flight-coalescing and pool machinery the mode exists
    to measure, rather than terminating at the cache.
    """

    def gateway_app_factory(ctx):
        return build_gateway(
            ctx=ctx,
            routes=[{
                "prefix": "/",
                "upstreams": [("127.0.0.1", upstream_port)],
            }],
            pool_size=GATEWAY_POOL_SIZE,
            cache_ttl=0.0,
        )

    return gateway_app_factory


def _gateway_load_process(port, connections, duration, barrier,
                          result_pipe):
    """Keep-alive GET load through the gateway: 3 hot for every cold."""
    try:
        socks = [
            socket.create_connection(("127.0.0.1", port), timeout=10)
            for _ in range(connections)
        ]
    except OSError:
        barrier.abort()
        result_pipe.send({"latencies": [], "errors": 1})
        return
    for sock in socks:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buffers = [bytearray() for _ in socks]
    try:
        barrier.wait(timeout=30)
    except Exception:
        result_pipe.send({"latencies": [], "errors": 1})
        return
    latencies: list[float] = []
    errors = 0
    index = 0
    deadline = time.monotonic() + duration
    try:
        while time.monotonic() < deadline:
            for sock, buffer in zip(socks, buffers):
                path = "cold.html" if index % 4 == 3 else "hot.html"
                index += 1
                begin = time.perf_counter()
                sock.sendall(
                    f"GET /{path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
                )
                status, _body = read_response(sock, buffer)
                if status.endswith("200 OK"):
                    latencies.append(time.perf_counter() - begin)
                else:
                    errors += 1
    except OSError:
        pass  # a shard vanished mid-run: report what completed
    for sock in socks:
        sock.close()
    result_pipe.send({"latencies": latencies, "errors": errors})
    result_pipe.close()


def run_gateway(duration: float, poller: str = "auto") -> dict:
    """The gateway cluster proxying a static cluster under a GET fleet."""
    upstream = ClusterServer(
        gateway_upstream_factory, shards=GATEWAY_UPSTREAM_SHARDS,
        poller=poller,
    )
    upstream.start()
    gateway = ClusterServer(
        make_gateway_factory(upstream.port), shards=GATEWAY_SHARDS,
        poller=poller,
    )
    try:
        gateway.start()
        payloads = _fan_out(
            _gateway_load_process, GATEWAY_PROCESSES,
            (gateway.port, GATEWAY_CONNECTIONS, duration), duration,
        )
        gw_aggregate = gateway.stats()["aggregate"]
        up_aggregate = upstream.stats()["aggregate"]
    finally:
        gateway.stop()
        upstream.stop()
    latencies: list[float] = []
    errors = 0
    for payload in payloads:
        latencies.extend(payload["latencies"])
        errors += payload["errors"]
    app = gw_aggregate.get("app", {})
    leases = app.get("gw_pool_leases", 0)
    reuses = app.get("gw_pool_reuses", 0)
    gw_requests = app.get("gw_requests", 0)
    upstream_requests = app.get("gw_upstream_requests", 0)
    result = _percentiles(latencies, duration)
    result.update({
        "gateway_shards": GATEWAY_SHARDS,
        "upstream_shards": GATEWAY_UPSTREAM_SHARDS,
        "pool_size": GATEWAY_POOL_SIZE,
        "client_errors": errors,
        "gw_requests": gw_requests,
        "upstream_requests": upstream_requests,
        "coalesced": app.get("gw_coalesced", 0),
        "pool_dials": app.get("gw_pool_dials", 0),
        "pool_leases": leases,
        "pool_reuses": reuses,
        # The keep-alive claim: leases served off a warm connection.
        "reuse_ratio": round(reuses / leases, 4) if leases else 0.0,
        # Coalescing effectiveness: client requests per upstream fetch.
        "requests_per_upstream_fetch": (
            round(gw_requests / upstream_requests, 2)
            if upstream_requests else 0.0
        ),
        "bad_gateway": app.get("gw_bad_gateway", 0),
        "upstream_server_requests": up_aggregate["requests"],
        "workers_reporting": gw_aggregate["workers_reporting"],
    })
    return result


# ----------------------------------------------------------------------
# Pytest entry points (the CI smoke path).
# ----------------------------------------------------------------------
def test_live_http_shard_scaling(report):
    duration = 0.8 * scale()
    throughput = Series("requests/sec")
    p50 = Series("p50 ms")
    p99 = Series("p99 ms")
    results: dict[int, dict] = {}
    for shards in SHARD_POINTS:
        point = run_point(shards, duration)
        results[shards] = point
        throughput.add(shards, point["rps"])
        p50.add(shards, point["p50_ms"])
        p99.add(shards, point["p99_ms"])

    cores = os.cpu_count() or 1
    report(format_table(
        f"Live HTTP over SO_REUSEPORT shards — {LOAD_PROCESSES} load "
        f"processes x {CONNECTIONS_PER_PROCESS} keep-alive connections, "
        f"{duration:.1f}s window, {cores} core(s)",
        "shards",
        [throughput, p50, p99],
    ))

    for shards, point in results.items():
        # Real serving happened and every client response is accounted for
        # by a shard (the server may have parsed a final request whose
        # response the deadline cut off, so >=).
        assert point["requests"] > 0, f"{shards} shards served nothing"
        assert point["workers_reporting"] == shards
        assert point["server_requests"] >= point["requests"], (
            f"{shards} shards: server counted {point['server_requests']} "
            f"requests, clients completed {point['requests']}"
        )

    if cores >= 2:
        # The acceptance bar: shared-nothing shards scale on real CPUs.
        assert throughput.at(2) > throughput.at(1), (
            f"2 shards ({throughput.at(2):.0f} rps) not faster than 1 "
            f"({throughput.at(1):.0f} rps) on a {cores}-core host"
        )
        assert throughput.at(4) > throughput.at(1)
    else:
        report("single core: shard-scaling assertion skipped "
               "(shards timeshare one CPU)")


def test_live_http_overload(report):
    duration = 0.8 * scale()
    point = run_overload(duration)
    report(
        f"Overload — {point['offered_connections']} offered connections vs "
        f"{point['shards']} shards x {point['cap_per_shard']} cap: "
        f"{point['rps']:.0f} admitted rps, p50 {point['p50_ms']:.2f} ms, "
        f"p99 {point['p99_ms']:.2f} ms, server shed {point['server_shed']}, "
        f"client-observed shed {point['client_shed']}, "
        f"saturation {point['saturation_max']}"
    )
    # Admitted traffic kept flowing…
    assert point["requests"] > 0, "no admitted requests completed"
    assert point["workers_reporting"] == OVERLOAD_SHARDS
    # …excess connections were actually shed…
    assert point["server_shed"] > 0, "overload never shed a connection"
    # …the cap held (stats taken after the fleet disconnected)…
    assert point["active_at_end"] <= OVERLOAD_SHARDS * OVERLOAD_CAP_PER_SHARD
    # …and admitted-request latency stayed bounded while shedding.
    assert point["p99_ms"] < OVERLOAD_P99_BOUND_MS * scale(), (
        f"admitted p99 {point['p99_ms']:.1f} ms exceeds bound "
        f"{OVERLOAD_P99_BOUND_MS * scale():.0f} ms under overload"
    )


def test_live_kv_cluster(report):
    duration = 0.8 * scale()
    point = run_kv(duration)
    report(
        f"KV over a {point['shards']}-shard mesh cluster — "
        f"{KV_PROCESSES} load processes x {KV_CONNECTIONS} connections, "
        f"{point['keys']} keys, {duration:.1f}s window: "
        f"local {point['local']['rps']:.0f} rps "
        f"(p99 {point['local']['p99_ms']:.2f} ms), "
        f"proxied {point['proxied']['rps']:.0f} rps "
        f"(p99 {point['proxied']['p99_ms']:.2f} ms), "
        f"server owned/proxied "
        f"{point['server_kv_owned']}/{point['server_kv_proxied']}, "
        f"mesh calls {point['mesh_calls']}"
    )
    # Both paths flowed: kernel-hashed connections hit owners and
    # non-owners, and non-owners proxied over the mesh.
    assert point["local"]["requests"] > 0, "no local-hit requests"
    assert point["proxied"]["requests"] > 0, "no proxied requests"
    assert point["client_errors"] == 0
    assert point["workers_reporting"] == KV_SHARDS
    # Server-side accounting: proxied ops happened and the mesh carried
    # them (each proxied op is one mesh call; populating PUTs add more).
    assert point["server_kv_proxied"] >= point["proxied"]["requests"]
    assert point["mesh_calls"] >= point["proxied"]["requests"]
    assert point["mesh_timeouts"] == 0


def test_live_kv_replicated(report):
    duration = 0.8 * scale()
    point = run_kv_replicated(duration)
    report(
        f"Replicated KV ({point['shards']} shards, replication="
        f"{point['replication']}, {point['keys']} keys, "
        f"{duration:.1f}s window): "
        f"writes local {point['local']['rps']:.0f} rps "
        f"(p99 {point['local']['p99_ms']:.2f} ms), "
        f"proxied {point['proxied']['rps']:.0f} rps "
        f"(p99 {point['proxied']['p99_ms']:.2f} ms), "
        f"{point['full_acks']}/{point['writes']} fully acked; "
        f"kill-drill: {point['unavailable_during_kill']} unavailable, "
        f"{point['outage_write_errors']} outage write errors, "
        f"hints {point['hints_queued']} queued / "
        f"{point['hints_replayed']} replayed / "
        f"{point['hints_pending_at_end']} pending"
    )
    # The measured window flowed on both coordinator placements.
    assert point["requests"] > 0, "no replicated writes completed"
    assert point["client_errors"] == 0
    assert point["workers_reporting"] == KV_REPL_SHARDS
    # Healthy-cluster writes reach the full replica set.
    assert point["full_acks"] == point["writes"]
    # Availability: one dead shard of four with replication=2 loses no
    # key (reads fall back) and refuses no write (quorum W=1 + hints).
    assert point["unavailable_during_kill"] == 0
    assert point["outage_write_errors"] == 0
    assert point["post_respawn_unavailable"] == 0
    # Hinted handoff engaged and drained after the respawn.
    assert point["hints_queued"] > 0, "outage writes parked no hints"
    assert point["hints_replayed"] > 0
    assert point["hints_pending_at_end"] == 0
    assert point["replica_writes"] > 0
    assert point["quorum_failures"] == 0
    # Egress batching engaged on the mesh: concurrent replica writes /
    # acks per link coalesced into gathered flushes at least once.
    assert point["mesh_batched_flushes"] > 0, (
        "replicated write drill never batched an outbound mesh flush"
    )
    assert point["mesh_frames_sent"] >= point["mesh_flushes"]


def test_live_kv_durability(report):
    duration = 0.8 * scale()
    point = run_durability(duration)
    report(
        f"Durability ({point['shards']} shards, replication="
        f"{point['replication']}, {point['writers']} writer threads x "
        f"{DURABILITY_WRITES_PER_WRITER} writes): "
        f"{point['acked_writes']}/{point['writes_offered']} acked in "
        f"{point['burst_s']:.2f}s, {point['wal_fsyncs']} fsyncs for "
        f"{point['wal_appends']} log records "
        f"({point['fsyncs_per_acked_write']:.3f} fsyncs/acked write, "
        f"largest group {point['group_max_seen']}); kill -9 drill: "
        f"{point['kill9_lost_acked_writes']} acked writes lost, "
        f"{point['wal_replayed_records']} records replayed, "
        f"{point['hints_pending_at_end']} hints pending"
    )
    # The burst completed and every write was acked durably.
    assert point["acked_writes"] == point["writes_offered"], (
        f"{point['client_errors']} writes failed during the burst"
    )
    # Group commit engaged: one fsync covers many acked writes.
    assert point["wal_fsyncs"] > 0
    assert point["group_max_seen"] > 1, "no group ever formed"
    assert point["fsyncs_per_acked_write"] < DURABILITY_FSYNC_RATIO_MAX, (
        f"{point['fsyncs_per_acked_write']:.3f} fsyncs per acked write "
        f"(bound {DURABILITY_FSYNC_RATIO_MAX}): group commit is not "
        f"amortising the disk barrier"
    )
    # The kill -9 drill: nothing acked was lost, the log replayed.
    assert point["kill9_respawned"], "victim shard did not respawn"
    assert point["kill9_lost_acked_writes"] == 0, (
        f"lost {point['kill9_lost_acked_writes']} acked writes to a "
        f"SIGKILL — the WAL is not covering the ack path"
    )
    assert point["wal_replayed_records"] > 0
    assert point["hints_pending_at_end"] == 0
    assert point["kill9_recovered"]


def test_live_cache_pipeline(report):
    duration = 0.8 * scale()
    point = run_cache(duration)
    report(
        f"Memcache front-end over a {point['shards']}-shard replicated "
        f"cluster — {CACHE_PROCESSES} load processes x "
        f"{CACHE_CONNECTIONS} connections, bursts of "
        f"{point['pipeline_depth']} gets x {point['keys_per_get']} keys, "
        f"{duration:.1f}s window: {point['rps']:.0f} get/s, "
        f"burst p50 {point['burst']['p50_ms']:.2f} ms, "
        f"p99 {point['burst']['p99_ms']:.2f} ms, "
        f"{point['responses_per_batch']:.2f} responses per egress write"
    )
    # Real load flowed through every shard, and every key was a hit.
    assert point["requests"] > 0, "no pipelined gets completed"
    assert point["client_errors"] == 0
    assert point["misses"] == 0, f"{point['misses']} unexpected misses"
    assert point["server_cache_errors"] == 0
    assert point["workers_reporting"] == CACHE_SHARDS
    # The acceptance bar: pipelined batches coalesce, so the cluster
    # sends MORE than one response frame per egress syscall.
    assert point["server_cache_pipelined_batches"] > 0
    assert point["responses_per_batch"] > 1, (
        f"{point['responses_per_batch']:.2f} responses per gathered "
        f"write: pipelined replies are not batching"
    )


def test_live_gateway(report):
    duration = 0.8 * scale()
    point = run_gateway(duration)
    report(
        f"Gateway ({point['gateway_shards']} gateway shards over "
        f"{point['upstream_shards']} upstream shards, pool size "
        f"{point['pool_size']}) — {GATEWAY_PROCESSES} load processes x "
        f"{GATEWAY_CONNECTIONS} connections, {duration:.1f}s window: "
        f"{point['rps']:.0f} rps, p50 {point['p50_ms']:.2f} ms, "
        f"p99 {point['p99_ms']:.2f} ms, reuse ratio "
        f"{point['reuse_ratio']:.3f} ({point['pool_dials']} dials / "
        f"{point['pool_leases']} leases), "
        f"{point['requests_per_upstream_fetch']:.1f} requests per "
        f"upstream fetch ({point['coalesced']} coalesced)"
    )
    # Real proxying happened, cleanly, on every shard.
    assert point["requests"] > 0, "no gateway requests completed"
    assert point["client_errors"] == 0
    assert point["bad_gateway"] == 0
    assert point["workers_reporting"] == GATEWAY_SHARDS
    # Accounting: the gateway saw the fleet's completed requests, and
    # the upstream cluster saw the gateway's fetches.
    assert point["gw_requests"] >= point["requests"]
    assert point["upstream_server_requests"] >= point["upstream_requests"]
    # The keep-alive claim: upstream fetches ride pooled connections.
    assert point["reuse_ratio"] >= 0.9, (
        f"reuse ratio {point['reuse_ratio']:.3f}: gateway is not "
        f"keeping upstream connections alive"
    )
    # The coalescing claim: duplicate concurrent GETs collapsed, so the
    # upstream saw strictly fewer fetches than the fleet sent requests.
    assert point["coalesced"] > 0, "no in-flight GET ever coalesced"
    assert point["upstream_requests"] < point["gw_requests"], (
        f"{point['upstream_requests']} upstream fetches for "
        f"{point['gw_requests']} requests: coalescing never engaged"
    )


# ----------------------------------------------------------------------
# Script mode: self-terminating runs that emit BENCH_live_http.json.
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Live-HTTP cluster benchmark (scale + overload modes)."
    )
    parser.add_argument("--mode",
                        choices=("scale", "overload", "kv", "durability",
                                 "cache", "gateway", "both", "all"),
                        default="both",
                        help="'both' = scale + overload (historical name); "
                             "'all' adds the sharded-state kv mode, the "
                             "WAL durability mode, the memcache cache "
                             "mode and the gateway mode")
    parser.add_argument("--duration", type=float, default=None,
                        help="seconds per measurement point "
                             "(default: 0.8 x scale)")
    parser.add_argument("--scale", type=int, default=None,
                        help="workload multiplier "
                             "(default: REPRO_BENCH_SCALE or 1)")
    parser.add_argument("--deadline", type=float, default=240.0,
                        help="overall wall-clock budget in seconds; "
                             "points that would start past it are skipped")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write results to this JSON file")
    parser.add_argument("--poller", choices=("auto", "epoll", "select"),
                        default="auto",
                        help="shard event-loop poller (select = the "
                             "pre-persistent-epoll fallback, for A/B runs)")
    args = parser.parse_args(argv)

    factor = args.scale if args.scale is not None else scale()
    duration = args.duration if args.duration is not None else 0.8 * factor
    started = time.monotonic()
    hard_deadline = started + args.deadline
    skipped: list[str] = []

    def budget_left(need: float) -> bool:
        return time.monotonic() + need <= hard_deadline

    # Each point costs roughly its window plus cluster setup/teardown.
    point_cost = duration + 10.0

    results: dict = {
        "bench": "live_http",
        "meta": {
            "cores": os.cpu_count() or 1,
            "duration_s": duration,
            "load_processes": LOAD_PROCESSES,
            "connections_per_process": CONNECTIONS_PER_PROCESS,
            "poller": args.poller,
            "python": sys.version.split()[0],
        },
    }

    if args.mode in ("scale", "both", "all"):
        table: dict[str, dict] = {}
        for shards in SHARD_POINTS:
            if not budget_left(point_cost):
                skipped.append(f"scale:{shards}")
                continue
            point = run_point(shards, duration, poller=args.poller)
            table[str(shards)] = point
            print(f"scale {shards} shard(s): {point['rps']:.0f} rps, "
                  f"p50 {point['p50_ms']:.2f} ms, "
                  f"p99 {point['p99_ms']:.2f} ms "
                  f"({point['requests']} requests)")
        results["scale"] = table

    if args.mode in ("overload", "both", "all"):
        if budget_left(point_cost):
            point = run_overload(duration, poller=args.poller)
            results["overload"] = point
            print(f"overload: {point['rps']:.0f} admitted rps, "
                  f"p99 {point['p99_ms']:.2f} ms, "
                  f"server shed {point['server_shed']}, "
                  f"client shed {point['client_shed']}")
        else:
            skipped.append("overload")

    if args.mode in ("kv", "all"):
        if budget_left(point_cost):
            point = run_kv(duration, poller=args.poller)
            results["kv"] = point
            print(f"kv ({point['shards']} shards, {point['keys']} keys): "
                  f"local {point['local']['rps']:.0f} rps "
                  f"p99 {point['local']['p99_ms']:.2f} ms | "
                  f"proxied {point['proxied']['rps']:.0f} rps "
                  f"p99 {point['proxied']['p99_ms']:.2f} ms | "
                  f"mesh calls {point['mesh_calls']}")
        else:
            skipped.append("kv")
        # The replicated point includes the kill/respawn drill, so its
        # budget is wider than one measurement window.
        if budget_left(point_cost + KV_REPL_DRAIN_DEADLINE):
            point = run_kv_replicated(duration, poller=args.poller)
            results["kv_replicated"] = point
            print(f"kv-replicated (replication={point['replication']}): "
                  f"write local {point['local']['rps']:.0f} rps "
                  f"p99 {point['local']['p99_ms']:.2f} ms | "
                  f"proxied {point['proxied']['rps']:.0f} rps "
                  f"p99 {point['proxied']['p99_ms']:.2f} ms | "
                  f"kill-drill unavailable "
                  f"{point['unavailable_during_kill']} | hints "
                  f"{point['hints_queued']}/{point['hints_replayed']}"
                  f"/{point['hints_pending_at_end']} "
                  f"queued/replayed/pending")
        else:
            skipped.append("kv_replicated")

    if args.mode in ("durability", "all"):
        # Fixed-size burst + drain window, not a duration-scaled point.
        if budget_left(10.0 + DURABILITY_DRAIN_DEADLINE):
            point = run_durability(duration, poller=args.poller)
            results["durability"] = point
            print(f"durability ({point['shards']} shards, replication="
                  f"{point['replication']}): "
                  f"{point['acked_writes']}/{point['writes_offered']} "
                  f"acked, {point['wal_fsyncs']} fsyncs "
                  f"({point['fsyncs_per_acked_write']:.3f} per acked "
                  f"write, largest group {point['group_max_seen']}) | "
                  f"kill -9: lost {point['kill9_lost_acked_writes']}, "
                  f"replayed {point['wal_replayed_records']}, "
                  f"recovered {point['kill9_recovered']}")
        else:
            skipped.append("durability")

    if args.mode in ("cache", "all"):
        if budget_left(point_cost):
            point = run_cache(duration, poller=args.poller)
            results["cache"] = point
            print(f"cache ({point['shards']} shards, memcache wire): "
                  f"{point['rps']:.0f} get/s, "
                  f"burst p50 {point['burst']['p50_ms']:.2f} ms "
                  f"p99 {point['burst']['p99_ms']:.2f} ms | "
                  f"{point['responses_per_batch']:.2f} responses "
                  f"per egress write | misses {point['misses']}")
        else:
            skipped.append("cache")

    if args.mode in ("gateway", "all"):
        if budget_left(point_cost):
            point = run_gateway(duration, poller=args.poller)
            results["gateway"] = point
            print(f"gateway ({point['gateway_shards']}x gateway over "
                  f"{point['upstream_shards']}x upstream): "
                  f"{point['rps']:.0f} rps, "
                  f"p99 {point['p99_ms']:.2f} ms | "
                  f"reuse ratio {point['reuse_ratio']:.3f} | "
                  f"{point['requests_per_upstream_fetch']:.1f} requests "
                  f"per upstream fetch "
                  f"({point['coalesced']} coalesced)")
        else:
            skipped.append("gateway")

    results["meta"]["skipped_points"] = skipped
    results["meta"]["elapsed_s"] = round(time.monotonic() - started, 3)
    if skipped:
        print(f"deadline {args.deadline:.0f}s reached; skipped: {skipped}")

    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
