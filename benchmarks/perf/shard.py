"""What the benchmark runs *inside* a shard process.

Two app factories per application, both built on the public
``repro.api`` builders:

* the **plain** factory adds nothing to the request path.  It only
  exports counters the runtime already keeps (scheduler, I/O backend,
  poller, timer wheel, buffer pool) through the app's ``extra_stats()``,
  so the cluster control pipe carries them to the harness;
* the **traced** factory additionally rebinds the public entry points of
  every layer *on the built instances* to span-recording wrappers.  The
  program's source is untouched; spans inside the program are ROADMAP
  item 1, not this benchmark.

Everything here executes after ``fork`` in the shard, so class-level
patches (the parsers) never reach the generator process.
"""

from __future__ import annotations

import json
from collections import deque
from time import perf_counter_ns
from typing import Any, Callable

from repro.api import build_kv, build_server
from repro.cache.memcache import MemcacheParser
from repro.core.do_notation import do
from repro.http.parser import RequestParser

#: The dump keeps only the newest spans: at ~10k ops/s a shard closes
#: >100k spans per second, and a human reads a dump, not a metric (the
#: per-name aggregates below are complete).
RAW_SPAN_CAP = 20_000

STATIC_BODY_PATH = "/index.html"


def bucket_of(ns: int) -> int:
    """Log-bucket index: 4 buckets per power of two (±12% resolution),
    integer-only so recording a span costs no float math."""
    if ns < 8:
        return ns if ns > 0 else 0
    bits = ns.bit_length()
    return (bits << 2) | ((ns >> (bits - 3)) & 3)


def bucket_upper_ns(bucket: int) -> int:
    """Upper bound of a bucket (inverse of :func:`bucket_of`)."""
    if bucket < 8:
        return bucket
    bits, sub = bucket >> 2, bucket & 3
    return ((4 + sub + 1) << (bits - 3)) - 1


class Tracer:
    """Per-shard span recorder.

    A span is ``name, start ns, end ns, shard, monadic thread id,
    parent`` where the parent is the enclosing open span *on the same
    monadic thread*.  Self time is the span minus the part its children
    on that thread cover.  Thread identity comes from the wrapper around
    ``Scheduler.step``: it notes whose batch is about to run, so every
    wrapper that executes inside that batch knows its thread without an
    extra trace node.
    """

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.tid = 0  # 0: the event loop itself, outside any batch
        self.next_id = 1
        self.open: dict[int, list[list]] = {}
        self.raw: deque[tuple] = deque(maxlen=RAW_SPAN_CAP)
        #: name -> [count, total ns, self ns, {bucket: count}]
        self.agg: dict[str, list] = {}
        #: plain event counts recorded beside spans (poll outcomes).
        self.counts: dict[str, int] = {}

    def begin(self, name: str, tid: int | None = None) -> list:
        if tid is None:
            tid = self.tid
        stack = self.open.get(tid)
        if stack is None:
            stack = self.open[tid] = []
        span_id = self.next_id
        self.next_id = span_id + 1
        # [name, tid, id, parent record, start ns, child ns]
        record = [name, tid, span_id, stack[-1] if stack else None,
                  perf_counter_ns(), 0]
        stack.append(record)
        return record

    def end(self, record: list) -> None:
        end_ns = perf_counter_ns()
        name, tid, span_id, parent, start_ns, child_ns = record
        stack = self.open[tid]
        if stack[-1] is record:
            stack.pop()
        else:  # an abandoned generator closed out of order
            stack.remove(record)
        if not stack:
            del self.open[tid]
        duration = end_ns - start_ns
        if parent is not None:
            parent[5] += duration
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0, 0, {}]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        bucket = bucket_of(duration)
        entry[3][bucket] = entry[3].get(bucket, 0) + 1
        self.raw.append((span_id, parent[2] if parent else 0, name,
                         start_ns, end_ns, tid))

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    # -- wrappers ------------------------------------------------------
    def sync(self, name: str, fn: Callable, tid: int | None = None):
        """Span around a plain call."""
        def traced(*args, **kwargs):
            record = self.begin(name, tid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(record)
        return traced

    def monadic(self, name: str, fn: Callable):
        """Span around an ``M``-returning call: the ``@do`` generator
        keeps the span open across the parked time, not just across
        building the ``M``."""
        @do
        def traced(*args, **kwargs):
            record = self.begin(name)
            try:
                result = yield fn(*args, **kwargs)
            finally:
                self.end(record)
            return result
        return traced

    # -- export --------------------------------------------------------
    def flat(self) -> dict[str, int]:
        """Aggregates as flat numeric keys: the cluster master merges
        shards by adding equal keys, which is exactly right for counts,
        totals and histogram buckets."""
        out = {f"count.{name}": value for name, value in self.counts.items()}
        for name, (count, total, self_ns, buckets) in self.agg.items():
            out[f"span.{name}.n"] = count
            out[f"span.{name}.ns"] = total
            out[f"span.{name}.self_ns"] = self_ns
            for bucket, hits in buckets.items():
                out[f"span.{name}.h.{bucket}"] = hits
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, tid in self.raw:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end,
                    "shard": self.shard, "tid": tid,
                }) + "\n")


def export_runtime_counters(app: Any, rt: Any, tracer: Tracer | None) -> None:
    """Route the runtime's existing counters (and the tracer's
    aggregates, when tracing) through ``app.extra_stats()``."""
    base = getattr(app, "extra_stats", dict)
    backend = rt.backend

    def extra_stats() -> dict:
        out = dict(base())
        sched = rt.sched.stats()
        out["sched_syscalls"] = sched["total_syscalls"]
        out["sched_switches"] = sched["total_switches"]
        for name in ("read_calls", "recv_into_calls", "write_calls",
                     "writev_calls", "writev_bufs", "sendfile_calls"):
            out[f"io_{name}"] = getattr(backend, name)
        out["poller_ctl_calls"] = rt.poller.ctl_calls
        for name, value in rt.timers.stats().items():
            out[f"timers_{name}"] = value
        for name, value in rt.buffers.stats().items():
            out[f"buffers_{name}"] = value
        if tracer is not None:
            out.update(tracer.flat())
        return out

    app.extra_stats = extra_stats


def _trace_runtime(tracer: Tracer, rt: Any) -> None:
    sched = rt.sched
    step = sched.step
    ready = sched.ready

    def traced_step():
        # Whose batch runs next: every span opened inside it belongs to
        # that monadic thread.
        tracer.tid = ready[0][0].tid if ready else 0
        record = tracer.begin("core.step", 0)
        try:
            return step()
        finally:
            tracer.end(record)
            tracer.tid = 0

    sched.step = traced_step
    poll = rt.poller.poll

    def traced_poll(timeout):
        record = tracer.begin("poller.poll", 0)
        try:
            resumes = poll(timeout)
        finally:
            tracer.end(record)
        if timeout == 0:
            tracer.count("poller.zero_timeout")
        if resumes:
            tracer.count("poller.useful")
        return resumes

    rt.poller.poll = traced_poll


def _trace_http(tracer: Tracer, server: Any) -> None:
    handler = server.protocol.handler
    handler.respond = tracer.monadic("http.respond", handler.respond)
    # Parsers are created per connection inside the protocol, so the
    # class is the only outside seam.
    RequestParser.feed = tracer.sync("http.parse", RequestParser.feed)
    RequestParser.next_request = tracer.sync(
        "http.parse", RequestParser.next_request)


def _trace_kv(tracer: Tracer, server: Any) -> None:
    node, mesh, wal = server.kv, server.mesh, server.wal
    for op in ("get", "put", "mget"):
        setattr(node, op, tracer.monadic(f"kv.{op}", getattr(node, op)))
    mesh.call = tracer.monadic("mesh.call", mesh.call)
    mesh.fan_out = tracer.monadic("mesh.fan_out", mesh.fan_out)
    mesh.cast = tracer.monadic("mesh.cast", mesh.cast)
    mesh.handler = tracer.monadic("mesh.serve", mesh.handler)
    if wal is not None:
        wal.commit = tracer.monadic("wal.commit", wal.commit)
        # The documented fault-injection seam; runs on the blocking-I/O
        # pool, so it belongs to no monadic thread (tid -1).
        wal._sync = tracer.sync("wal.fsync", wal._sync, tid=-1)
    frontend = getattr(server, "cache_frontend", None)
    if frontend is not None:
        protocol = frontend.protocol
        protocol.execute = tracer.monadic("cache.execute", protocol.execute)
        MemcacheParser.feed = tracer.sync("cache.parse", MemcacheParser.feed)
        MemcacheParser.next_command = tracer.sync(
            "cache.parse", MemcacheParser.next_command)


def _finish(app: Any, ctx: Any, trace_path: str | None) -> Any:
    tracer = None
    if trace_path is not None:
        tracer = Tracer(ctx.shard_index)
        _trace_runtime(tracer, ctx.rt)
        _trace_http(tracer, app)
        if hasattr(app, "kv"):
            _trace_kv(tracer, app)
        # The graceful-stop replica push takes seconds and belongs to no
        # metric; without it the shard exits right after the dump below.
        app.drain = None
        base_stop = app.stop

        def stop() -> None:
            base_stop()
            tracer.dump(f"{trace_path}.shard{ctx.shard_index}.jsonl")

        app.stop = stop
    export_runtime_counters(app, ctx.rt, tracer)
    return app


def static_factory(body: bytes, trace_path: str | None = None):
    """Factory for the static-file server (one in-memory page)."""
    def factory(ctx):
        return _finish(build_server(ctx=ctx, site={STATIC_BODY_PATH: body}),
                       ctx, trace_path)
    return factory


def kv_factory(trace_path: str | None = None):
    """Factory for the replicated KV app; every knob rides the cluster
    configuration through ``ctx``."""
    def factory(ctx):
        return _finish(build_kv(ctx=ctx), ctx, trace_path)
    return factory
