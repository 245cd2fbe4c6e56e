"""The seams and counter keys ``benchmarks/perf`` relies on exist.

The harness reads the program's counters with ``c.get(key, 0)`` and
rebinds public methods on built instances, so a renamed key reads as a
silent zero and a renamed method as an ``AttributeError`` inside a
forked shard.  The keys are extracted from ``benchmarks/perf/layers.py``
itself, so this list cannot go stale; the harness's own ``flatten`` and
``export_runtime_counters`` produce the key sets they are checked
against.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.api import ClusterServer, build_kv
from repro.cache.client import BlockingMemcacheClient
from repro.cache.memcache import MemcacheParser
from repro.core.do_notation import do
from repro.core.monad import pure
from repro.http.blocking_client import BlockingHttpClient
from repro.http.parser import RequestParser
from repro.runtime.live_runtime import LiveRuntime, make_listener
from repro.runtime.mesh import MeshNode

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"

#: Prefixes ``shard.py::export_runtime_counters`` adds inside the shard;
#: the in-process test below covers them, the cluster test the rest.
EXPORTED = ("app.sched_", "app.io_", "app.poller_", "app.timers_",
            "app.buffers_", "app.span.", "app.count.")


def looked_up_keys() -> set[str]:
    """Every counter-key literal ``layers.py`` looks up."""
    source = (PERF / "layers.py").read_text()
    literal = re.compile(r'"([^"{}]+)"')
    keys = set()
    for call in re.findall(r"\bper_op\((.*?)\)", source, re.S):
        keys.update(literal.findall(call))
    keys.update(re.findall(r'\b(?:c|gauges)\.get\(\s*"([^"{}]+)"', source))
    return keys


@pytest.fixture(scope="module")
def harness():
    # The harness imports its siblings by bare name (it runs as a script).
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERF))
        import layers
        import shard
        yield layers, shard


def kv_factory(ctx):
    return build_kv(ctx=ctx)


def test_the_extraction_finds_the_keys():
    keys = looked_up_keys()
    assert len(keys) >= 30
    assert {"mesh.flushes", "app.sched_syscalls", "app.wal_fsyncs",
            "app.kv_hints_pending", "accepted"} <= keys


def test_cluster_stats_carry_every_key_the_harness_reads(harness, tmp_path):
    layers, _shard = harness
    cluster = ClusterServer(
        kv_factory, shards=2, mesh=True, replication=2, write_quorum=2,
        wal_dir=str(tmp_path), cache_port=0, grace=0.1,
    )
    cluster.start()
    try:
        with BlockingHttpClient(cluster.port) as client:
            status, _, _ = client.request("PUT", "/kv/alpha", body=b"1")
            assert status.split()[1] == "201"
            status, body = client.get("/kv/alpha")
            assert (status.split()[1], body) == ("200", b"1")
            status, _, _ = client.request("GET", "/mget?keys=alpha,beta")
            assert status.split()[1] == "200"
        with BlockingMemcacheClient(cluster.cache_port) as client:
            assert client.set("gamma", b"3")
            assert client.get("gamma") == b"3"
        stats = cluster.stats()
        flat = layers.flatten(stats)
    finally:
        cluster.stop()
    wanted = {key for key in looked_up_keys()
              if not key.startswith(EXPORTED)}
    assert wanted - set(flat) == set()
    # The ops above really were counted under those names.
    assert flat["mesh.calls"] >= 1 and flat["mesh.flushes"] >= 1
    assert flat["app.wal_appends"] >= 2 and flat["app.cache_commands"] == 2
    # Each shard's first anti-entropy round runs as it starts.
    assert flat["app.kv_anti_entropy_rounds"] >= 1
    assert "app.kv_anti_entropy_applied" in flat
    # The loop's own poll counters (no harness reads them yet): per
    # worker beside ``poller_ctl``, summed in the aggregate.
    for key in ("poller_ctl", "poller_polls", "poller_zero_timeout_polls"):
        assert flat[key] == sum(w[key] for w in stats["workers"])
    assert flat["poller_polls"] > flat["poller_zero_timeout_polls"] >= 0


@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


@pytest.fixture
def app(rt, tmp_path):
    listeners = [make_listener() for _ in range(3)]
    listener, mesh_listener, cache_listener = listeners
    mesh = MeshNode(0, rt.io, mesh_listener,
                    {0: mesh_listener.getsockname()}, rt.timers)
    built = build_kv(rt=rt, listener=listener, mesh=mesh,
                     wal_dir=str(tmp_path), cache_listener=cache_listener)
    yield built
    built.wal.close()
    for sock in listeners:
        sock.close()


def test_exported_runtime_counters_carry_the_rest(harness, rt, app):
    _layers, shard = harness
    shard.export_runtime_counters(app, rt, None)
    exported = {f"app.{key}" for key in app.extra_stats()}
    wanted = {key for key in looked_up_keys()
              if key.startswith(EXPORTED[:5])}
    assert wanted and wanted - exported == set()


KV_COUNTERS = ("keys", "owned_ops", "proxied_ops", "mesh_served_ops",
               "replica_writes", "read_repairs", "hints_queued",
               "hints_replayed", "hints_pending", "quorum_failures",
               "anti_entropy_rounds", "anti_entropy_applied")


def test_kv_and_mesh_stats_key_sets(app):
    # ``local_stats`` (the /kv-stats line) and ``extra_stats`` (the
    # control snapshot) report the same twelve counters, bare and
    # ``kv_``.
    wal = set(app.wal.stats())
    assert set(app.kv.local_stats()) == {
        "index", "replication", "write_quorum", "clock", "wal",
        *KV_COUNTERS}
    assert set(app.kv.extra_stats()) == {
        *(f"kv_{name}" for name in KV_COUNTERS), *wal}
    assert set(app.mesh.health()) == {
        "peers", "connected_peers", "calls", "casts", "served", "timeouts",
        "peer_failures", "write_timeouts", "frames_sent", "frames_received",
        "flushes", "batched_flushes", "max_frames_per_flush", "pings_sent"}


def test_the_seams_the_tracer_rebinds_exist(rt, app):
    for owner, names in (
        (app.protocol.handler, ("respond",)),
        (app.kv, ("get", "put", "mget")),
        (app.mesh, ("call", "fan_out", "cast")),
        (app.wal, ("commit", "_sync")),
        (app.cache_frontend.protocol, ("execute",)),
        (RequestParser, ("feed", "next_request")),
        (MemcacheParser, ("feed", "next_command")),
        (rt.sched, ("step",)),
        (rt.poller, ("poll",)),
    ):
        for name in names:
            assert callable(getattr(owner, name)), (owner, name)
    assert app.mesh.handler is not None
    assert len(rt.sched.ready) == 0  # the tracer indexes it: a deque
    for name in ("stop", "drain", "extra_stats"):
        setattr(app, name, getattr(app, name, None))  # instance-assignable


def test_rebinding_call_on_an_instance_intercepts_fan_out(rt, app):
    # The tracer wraps ``mesh.call`` on the built instance; ``fan_out``
    # must reach it through ``self.call``, not through a private twin.
    app.mesh.handler = lambda body: pure(b"served:" + body)
    inner, seen = app.mesh.call, []

    def spying_call(peer, body, timeout=None):
        seen.append((peer, body))
        return inner(peer, body, timeout)

    app.mesh.call = spying_call
    results = []

    @do
    def program():
        results.append((yield app.mesh.fan_out({0: b"x"})))

    rt.spawn(program())
    rt.run(until=lambda: bool(results), idle_timeout=5.0)
    assert results == [{0: b"served:x"}]
    assert seen == [(0, b"x")]
