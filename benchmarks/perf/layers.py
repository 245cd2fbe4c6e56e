"""Per-layer metrics: counter deltas and span aggregates → named numbers.

Counts are the program's own counters, read through
``ClusterServer.stats()`` as deltas over the measured rounds of the
*untraced* cluster (the tracing wrappers add trace nodes of their own,
so counting under them would count the benchmark).  Times come from the
span aggregates of the traced cluster.  A layer is a module of
``src/repro``; the metric name's prefix names it.
"""

from __future__ import annotations

from shard import bucket_upper_ns


def flatten(stats: dict) -> dict[str, float]:
    """``aggregate`` (with its ``mesh``/``app`` sections) as one flat
    ``section.key -> number`` mapping."""
    flat = {}
    for key, value in stats["aggregate"].items():
        if isinstance(value, dict):
            for sub, number in value.items():
                if isinstance(number, (int, float)):
                    flat[f"{key}.{sub}"] = number
        elif isinstance(value, (int, float)):
            flat[key] = value
    return flat


def delta(before: dict, after: dict) -> dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Spans:
    """Span aggregates of one traced window (deltas of ``Tracer.flat``)."""

    def __init__(self, counters: dict[str, float]) -> None:
        self.c = counters

    def n(self, *names: str) -> float:
        return sum(self.c.get(f"app.span.{name}.n", 0) for name in names)

    def ns(self, *names: str) -> float:
        return sum(self.c.get(f"app.span.{name}.ns", 0) for name in names)

    def self_ns(self, *names: str) -> float:
        return sum(self.c.get(f"app.span.{name}.self_ns", 0)
                   for name in names)

    def count(self, name: str) -> float:
        return self.c.get(f"app.count.{name}", 0)

    def mean_us(self, *names: str) -> float:
        return ratio(self.ns(*names), self.n(*names)) / 1e3

    def p99_us(self, *names: str) -> float:
        """Upper edge of the log bucket holding the 99th percentile."""
        buckets: dict[int, float] = {}
        for name in names:
            prefix = f"app.span.{name}.h."
            for key, hits in self.c.items():
                if key.startswith(prefix) and hits:
                    bucket = int(key[len(prefix):])
                    buckets[bucket] = buckets.get(bucket, 0) + hits
        need = 0.99 * sum(buckets.values())
        seen = 0.0
        for bucket in sorted(buckets):
            seen += buckets[bucket]
            if seen >= need:
                return bucket_upper_ns(bucket) / 1e3
        return 0.0


_KV_OPS = ("kv.get", "kv.put", "kv.mget")


def per_layer(workload, plain, traced, overhead_share: float) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``plain``/``traced`` are the two ``Measurement`` objects of a traced
    run (see ``run.py``): counters from the first, spans from the second.
    """
    c, ops = plain.counters, plain.ops
    s, traced_ops = Spans(traced.counters), traced.ops

    def per_op(*keys: str) -> float:
        return ratio(sum(c.get(key, 0) for key in keys), ops)

    def us_per_op(ns: float) -> float:
        return ratio(ns, traced_ops) / 1e3

    gen_cpu = sum(w.gen_cpu_s for w in plain.windows)
    elapsed = sum(w.elapsed_s for w in plain.windows)
    return {
        # core: repro.core.scheduler
        "core.trace_nodes_per_op": (per_op("app.sched_syscalls"), "count"),
        "core.switches_per_op": (per_op("app.sched_switches"), "count"),
        "core.step_us_per_op": (us_per_op(s.ns("core.step")), "us"),
        # poller: repro.runtime.live_runtime
        "poller.polls_per_op": (ratio(s.n("poller.poll"), traced_ops),
                                "count"),
        "poller.zero_timeout_polls_per_op": (
            ratio(s.count("poller.zero_timeout"), traced_ops), "count"),
        "poller.events_per_poll": (
            ratio(s.count("poller.useful"), s.n("poller.poll")), "ratio"),
        "poller.wait_us_per_op": (us_per_op(s.ns("poller.poll")), "us"),
        "poller.ctl_per_op": (per_op("app.poller_ctl_calls"), "count"),
        # driver: repro.runtime.driver
        "driver.accepted": (
            c.get("accepted", 0) + c.get("app.cache_connections", 0),
            "count"),
        "driver.shed": (c.get("shed", 0) + c.get("app.cache_shed", 0),
                        "count"),
        # io: repro.runtime.io_api, buffers
        "io.write_syscalls_per_op": (
            per_op("app.io_write_calls", "app.io_writev_calls"), "count"),
        "io.read_syscalls_per_op": (
            per_op("app.io_read_calls", "app.io_recv_into_calls"), "count"),
        "io.bufs_per_writev": (
            ratio(c.get("app.io_writev_bufs", 0),
                  c.get("app.io_writev_calls", 0)), "count"),
        "io.buffer_allocs_per_op": (per_op("app.buffers_allocations"),
                                    "count"),
        "io.bytes_out_per_op": (
            per_op("bytes_sent", "app.cache_bytes_sent"), "B"),
        # timers: repro.runtime.timer_wheel
        "timers.scheduled_per_op": (per_op("app.timers_scheduled"), "count"),
        "timers.fired_per_op": (per_op("app.timers_fired"), "count"),
        "timers.wakeups_per_op": (per_op("app.timers_wakeups"), "count"),
        # http: repro.http.parser, server
        "http.parse_us_per_op": (us_per_op(s.ns("http.parse")), "us"),
        "http.respond_us_mean": (s.mean_us("http.respond"), "us"),
        "http.respond_us_p99": (s.p99_us("http.respond"), "us"),
        "http.responses_err": (c.get("responses_err", 0), "count"),
        # cache: repro.cache.memcache, base
        "cache.parse_us_per_op": (us_per_op(s.ns("cache.parse")), "us"),
        "cache.execute_us_mean": (s.mean_us("cache.execute"), "us"),
        "cache.commands_per_op": (per_op("app.cache_commands"), "count"),
        "cache.responses_per_batch": (
            ratio(c.get("app.cache_responses", 0),
                  c.get("app.cache_send_batches", 0)), "count"),
        # kv: repro.app.kv
        "kv.op_us_mean": (s.mean_us(*_KV_OPS), "us"),
        "kv.op_us_p99": (s.p99_us(*_KV_OPS), "us"),
        "kv.self_us_per_op": (us_per_op(s.self_ns(*_KV_OPS)), "us"),
        "kv.local_share": (
            1.0 - ratio(c.get("app.kv_proxied_ops", 0),
                        ops * workload.keys_per_op)
            if workload.keys_per_op else 0.0, "ratio"),
        "kv.read_repairs_per_op": (per_op("app.kv_read_repairs"), "count"),
        "kv.hints_pending": (plain.gauges.get("app.kv_hints_pending", 0),
                             "count"),
        # mesh: repro.runtime.mesh
        "mesh.calls_per_op": (per_op("mesh.calls"), "count"),
        "mesh.rtt_us_mean": (s.mean_us("mesh.call"), "us"),
        "mesh.rtt_us_p99": (s.p99_us("mesh.call"), "us"),
        "mesh.fanout_us_mean": (s.mean_us("mesh.fan_out"), "us"),
        "mesh.serve_us_mean": (s.mean_us("mesh.serve"), "us"),
        "mesh.frames_per_op": (per_op("mesh.frames_sent"), "count"),
        "mesh.frames_per_flush": (
            ratio(c.get("mesh.frames_sent", 0), c.get("mesh.flushes", 0)),
            "count"),
        "mesh.timeouts": (c.get("mesh.timeouts", 0), "count"),
        "mesh.peer_failures": (c.get("mesh.peer_failures", 0), "count"),
        # wal: repro.app.wal
        "wal.commits_per_op": (per_op("app.wal_appends"), "count"),
        "wal.commit_wait_us_mean": (s.mean_us("wal.commit"), "us"),
        "wal.commit_wait_us_p99": (s.p99_us("wal.commit"), "us"),
        "wal.fsyncs_per_op": (per_op("app.wal_fsyncs"), "count"),
        "wal.records_per_fsync": (
            ratio(c.get("app.wal_group_records", 0),
                  c.get("app.wal_group_commits", 0)), "count"),
        "wal.fsync_us_mean": (s.mean_us("wal.fsync"), "us"),
        "wal.bytes_per_user_byte": (
            ratio(c.get("app.wal_bytes", 0), ops * workload.write_bytes),
            "ratio"),
        "wal.flush_failures": (c.get("app.wal_flush_failures", 0), "count"),
        # cluster: repro.runtime.cluster
        "cluster.start_s": (plain.timings["start_s"], "s"),
        "cluster.populate_s": (plain.timings["populate_s"], "s"),
        # gen: the harness itself
        "gen.cpu_us_per_op": (ratio(gen_cpu, ops) * 1e6, "us"),
        "gen.recvs_per_op": (
            ratio(sum(w.recvs for w in plain.windows), ops), "count"),
        "gen.cpu_share": (ratio(gen_cpu, elapsed), "ratio"),
        "gen.probe_us": (
            ratio(sum(w.probe_ns for w in plain.windows), ops) / 1e3, "us"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
