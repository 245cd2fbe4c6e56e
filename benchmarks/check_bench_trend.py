"""CI regression gate over ``BENCH_live_http.json``.

Compares a fresh bench run against the committed baseline floor
(``benchmarks/BENCH_live_http.baseline.json``) and exits non-zero when:

* any shard point's requests/sec falls more than ``--tolerance`` below the
  baseline floor (default 30%);
* a baseline shard point is missing from the results (the run was cut
  short — a silent skip must not read as a pass);
* the overload point's admitted-request p99 exceeds the baseline bound,
  or the run shed nothing (the cap did not engage);
* the kv point's total rps falls below the baseline floor, the run never
  proxied an op over the mesh (the sharded-state path did not engage), or
  any mesh call timed out;
* the replicated-kv point's write rps falls below the baseline floor, a
  key was unavailable (or a write refused) during the kill-one-shard
  drill, hinted handoff failed to engage and drain after the respawn,
  or the mesh never batched an outbound flush under the drill's load;
* the durability point's fsyncs-per-acked-write exceeds the baseline
  bound (group commit must amortise the disk barrier — this is a hard
  gate, not tolerance-scaled), a write failed during the burst, or the
  ``kill -9`` drill lost an acked write / failed to replay the log /
  left hints undrained;
* the cache point's pipelined-get rps falls below the baseline floor,
  pipelined replies never coalesced into gathered writes (responses per
  egress write must exceed 1), or a fully populated key set produced
  misses or client errors;
* the gateway point's rps falls below the baseline floor, the
  gateway→upstream connection-reuse ratio drops below its **hard**
  minimum (no tolerance: keep-alive either works or it does not), the
  run never coalesced a duplicate in-flight GET, or the fleet saw
  client errors / 502s;
* the core point (``bench_primitives.py``) shows context-switch, spawn
  or nbio-dispatch rates below their baseline floors, or tracemalloc
  allocations per parked thread above the committed ceiling (a **hard**
  bound — allocation counts are deterministic, so growth there is a
  code change, not machine noise);
* the hotpath point (``bench_hotpath.py``) shows more than the bounded
  write syscalls per HTTP response (the gathered-write claim), no mesh
  flush coalescing, timer-thread forks growing with call count or with
  pooled-request count, wheel wakeups outrunning fired deadlines
  (the earliest-deadline sleeper must not tick), pool buffer
  allocations exceeding the per-request ceiling (or a leaked lease),
  the pooled ``recv_into`` ingress path not engaging, or the static
  sendfile path off / still reading via AIO / diverging byte-wise
  from the in-memory fallback.

Usage::

    python benchmarks/check_bench_trend.py BENCH_live_http.json \
        --baseline benchmarks/BENCH_live_http.baseline.json --tolerance 0.30
"""

from __future__ import annotations

import argparse
import json
import sys


def check(results: dict, baseline: dict, tolerance: float) -> list[str]:
    """All regression findings (empty = gate passes)."""
    failures: list[str] = []

    scale = results.get("scale", {})
    for shards, floor_rps in baseline.get("scale_rps", {}).items():
        point = scale.get(str(shards))
        if point is None:
            failures.append(
                f"scale point {shards} shard(s) missing from results "
                f"(run cut short?)"
            )
            continue
        minimum = floor_rps * (1.0 - tolerance)
        rps = point.get("rps", 0.0)
        status = "ok" if rps >= minimum else "REGRESSION"
        print(
            f"  scale {shards} shard(s): {rps:8.0f} rps "
            f"(floor {floor_rps}, gate {minimum:.0f}) {status}"
        )
        if rps < minimum:
            failures.append(
                f"{shards} shard(s): {rps:.0f} rps is below "
                f"{minimum:.0f} (floor {floor_rps} - {tolerance:.0%})"
            )

    overload_baseline = baseline.get("overload")
    if overload_baseline:
        overload = results.get("overload")
        if overload is None:
            failures.append("overload point missing from results")
        else:
            p99 = overload.get("p99_ms", float("inf"))
            bound = overload_baseline.get("p99_ms_max")
            if bound is not None:
                status = "ok" if p99 <= bound else "REGRESSION"
                print(
                    f"  overload admitted p99: {p99:8.2f} ms "
                    f"(bound {bound} ms) {status}"
                )
                if p99 > bound:
                    failures.append(
                        f"overload admitted p99 {p99:.2f} ms exceeds "
                        f"bound {bound} ms"
                    )
            if overload_baseline.get("require_shed") and not (
                overload.get("server_shed", 0) > 0
            ):
                failures.append(
                    "overload run shed no connections: the admission cap "
                    "never engaged"
                )

    kv_baseline = baseline.get("kv")
    if kv_baseline:
        kv = results.get("kv")
        if kv is None:
            failures.append("kv point missing from results")
        else:
            floor = kv_baseline.get("total_rps_min")
            if floor is not None:
                rps = kv.get("rps", 0.0)
                minimum = floor * (1.0 - tolerance)
                status = "ok" if rps >= minimum else "REGRESSION"
                print(f"  kv total: {rps:8.0f} rps "
                      f"(floor {floor}, gate {minimum:.0f}) {status}")
                if rps < minimum:
                    failures.append(
                        f"kv: {rps:.0f} rps is below {minimum:.0f} "
                        f"(floor {floor} - {tolerance:.0%})"
                    )
            if kv_baseline.get("require_proxied") and not (
                kv.get("server_kv_proxied", 0) > 0
            ):
                failures.append(
                    "kv run proxied nothing over the mesh: the "
                    "sharded-state path never engaged"
                )
            if kv.get("mesh_timeouts", 0) > 0:
                failures.append(
                    f"kv run had {kv['mesh_timeouts']} mesh timeouts"
                )

    kvr_baseline = baseline.get("kv_replicated")
    if kvr_baseline:
        kvr = results.get("kv_replicated")
        if kvr is None:
            failures.append("kv_replicated point missing from results")
        else:
            floor = kvr_baseline.get("total_rps_min")
            if floor is not None:
                rps = kvr.get("rps", 0.0)
                minimum = floor * (1.0 - tolerance)
                status = "ok" if rps >= minimum else "REGRESSION"
                print(f"  kv-replicated writes: {rps:8.0f} rps "
                      f"(floor {floor}, gate {minimum:.0f}) {status}")
                if rps < minimum:
                    failures.append(
                        f"kv_replicated: {rps:.0f} rps is below "
                        f"{minimum:.0f} (floor {floor} - {tolerance:.0%})"
                    )
            if kvr_baseline.get("require_available"):
                lost = kvr.get("unavailable_during_kill", -1)
                refused = kvr.get("outage_write_errors", -1)
                if lost != 0 or refused != 0:
                    failures.append(
                        f"kv_replicated kill drill: {lost} keys "
                        f"unavailable, {refused} writes refused with one "
                        f"shard down (replication floor broken)"
                    )
            if kvr_baseline.get("require_handoff"):
                queued = kvr.get("hints_queued", 0)
                replayed = kvr.get("hints_replayed", 0)
                pending = kvr.get("hints_pending_at_end", -1)
                if queued <= 0 or replayed <= 0 or pending != 0:
                    failures.append(
                        f"kv_replicated hinted handoff did not engage "
                        f"and drain (queued={queued} replayed={replayed} "
                        f"pending={pending})"
                    )
            if kvr_baseline.get("require_flush_batching") and not (
                kvr.get("mesh_batched_flushes", 0) > 0
            ):
                failures.append(
                    "kv_replicated run never batched an outbound mesh "
                    "flush: per-link egress coalescing did not engage"
                )

    dur_baseline = baseline.get("durability")
    if dur_baseline:
        dur = results.get("durability")
        if dur is None:
            failures.append("durability point missing from results")
        else:
            bound = dur_baseline.get("fsyncs_per_acked_write_max")
            if bound is not None:
                # Hard gate, deliberately NOT tolerance-scaled: group
                # commit either amortises the barrier or it does not.
                ratio = dur.get("fsyncs_per_acked_write", float("inf"))
                status = "ok" if ratio <= bound else "REGRESSION"
                print(f"  durability fsyncs/acked write: {ratio:6.3f} "
                      f"(hard bound {bound}) {status}")
                if ratio > bound:
                    failures.append(
                        f"durability: {ratio:.3f} fsyncs per acked write "
                        f"exceeds {bound}: group commit is not batching"
                    )
            acked = dur.get("acked_writes", 0)
            offered = dur.get("writes_offered", 0)
            if acked < offered:
                failures.append(
                    f"durability burst: only {acked}/{offered} writes "
                    f"acked ({dur.get('client_errors', 0)} client errors)"
                )
            if dur_baseline.get("require_kill9_recovery"):
                lost = dur.get("kill9_lost_acked_writes", -1)
                replayed = dur.get("wal_replayed_records", 0)
                pending = dur.get("hints_pending_at_end", -1)
                if not dur.get("kill9_recovered") or lost != 0:
                    failures.append(
                        f"durability kill -9 drill failed: lost={lost} "
                        f"acked writes, replayed={replayed} records, "
                        f"hints pending={pending}, respawned="
                        f"{dur.get('kill9_respawned')}"
                    )
                else:
                    print(f"  durability kill -9: lost {lost}, "
                          f"replayed {replayed} record(s) ok")

    cache_baseline = baseline.get("cache")
    if cache_baseline:
        cache = results.get("cache")
        if cache is None:
            failures.append("cache point missing from results")
        else:
            floor = cache_baseline.get("total_rps_min")
            if floor is not None:
                rps = cache.get("rps", 0.0)
                minimum = floor * (1.0 - tolerance)
                status = "ok" if rps >= minimum else "REGRESSION"
                print(f"  cache gets: {rps:8.0f} rps "
                      f"(floor {floor}, gate {minimum:.0f}) {status}")
                if rps < minimum:
                    failures.append(
                        f"cache: {rps:.0f} rps is below {minimum:.0f} "
                        f"(floor {floor} - {tolerance:.0%})"
                    )
            if cache_baseline.get("require_pipeline_batching"):
                ratio = cache.get("responses_per_batch", 0.0)
                batched = cache.get("server_cache_pipelined_batches", 0)
                if ratio <= 1.0 or batched <= 0:
                    failures.append(
                        f"cache run never batched pipelined responses "
                        f"(responses_per_batch={ratio:.2f}, "
                        f"pipelined_batches={batched}): the gathered-"
                        f"write egress did not engage"
                    )
                else:
                    print(f"  cache responses_per_batch: {ratio:6.2f} ok")
            if cache.get("misses", 0) > 0 or cache.get(
                "client_errors", 0
            ) > 0:
                failures.append(
                    f"cache run had {cache.get('misses', 0)} misses / "
                    f"{cache.get('client_errors', 0)} client errors on a "
                    f"fully populated key set"
                )

    gw_baseline = baseline.get("gateway")
    if gw_baseline:
        gw = results.get("gateway")
        if gw is None:
            failures.append("gateway point missing from results")
        else:
            floor = gw_baseline.get("total_rps_min")
            if floor is not None:
                rps = gw.get("rps", 0.0)
                minimum = floor * (1.0 - tolerance)
                status = "ok" if rps >= minimum else "REGRESSION"
                print(f"  gateway: {rps:8.0f} rps "
                      f"(floor {floor}, gate {minimum:.0f}) {status}")
                if rps < minimum:
                    failures.append(
                        f"gateway: {rps:.0f} rps is below {minimum:.0f} "
                        f"(floor {floor} - {tolerance:.0%})"
                    )
            ratio_min = gw_baseline.get("reuse_ratio_min")
            if ratio_min is not None:
                # Hard gate, deliberately NOT tolerance-scaled: pooled
                # keep-alive either holds connections open or it does
                # not — a 30% haircut on a ratio would mask total loss.
                ratio = gw.get("reuse_ratio", 0.0)
                status = "ok" if ratio >= ratio_min else "REGRESSION"
                print(f"  gateway reuse_ratio: {ratio:6.3f} "
                      f"(hard floor {ratio_min}) {status}")
                if ratio < ratio_min:
                    failures.append(
                        f"gateway connection-reuse ratio {ratio:.3f} is "
                        f"below the hard floor {ratio_min}: upstream "
                        f"keep-alive is not engaging"
                    )
            if gw_baseline.get("require_coalescing"):
                coalesced = gw.get("coalesced", 0)
                fetches = gw.get("upstream_requests", 0)
                requests = gw.get("gw_requests", 0)
                if coalesced <= 0 or not (0 < fetches < requests):
                    failures.append(
                        f"gateway coalescing did not engage "
                        f"(coalesced={coalesced}, upstream fetches="
                        f"{fetches}, requests={requests}): duplicate "
                        f"in-flight GETs are not collapsing"
                    )
                else:
                    print(f"  gateway coalesced: {coalesced:6d} "
                          f"({requests} requests -> {fetches} fetches) ok")
            if gw.get("client_errors", 0) > 0 or gw.get(
                "bad_gateway", 0
            ) > 0:
                failures.append(
                    f"gateway run had {gw.get('client_errors', 0)} client "
                    f"errors / {gw.get('bad_gateway', 0)} 502s against a "
                    f"healthy upstream"
                )

    core_baseline = baseline.get("core")
    if core_baseline:
        core = results.get("core")
        if core is None:
            failures.append("core point missing from results "
                            "(bench_primitives.py did not run?)")
        else:
            for key, label in (
                ("context_switches_per_sec", "context switches/s"),
                ("spawns_per_sec", "spawns/s"),
                ("nbio_syscalls_per_sec", "nbio syscalls/s"),
            ):
                floor = core_baseline.get(f"{key}_min")
                if floor is None:
                    continue
                rate = core.get(key, 0.0)
                minimum = floor * (1.0 - tolerance)
                status = "ok" if rate >= minimum else "REGRESSION"
                print(f"  core {label}: {rate:8.0f} "
                      f"(floor {floor}, gate {minimum:.0f}) {status}")
                if rate < minimum:
                    failures.append(
                        f"core {label} {rate:.0f} is below "
                        f"{minimum:.0f} (floor {floor} - {tolerance:.0%})"
                    )
            for key, unit in (
                ("parked_thread_blocks", "blocks"),
                ("parked_thread_bytes", "bytes"),
            ):
                bound = core_baseline.get(f"{key}_max")
                if bound is None:
                    continue
                # Hard gate, deliberately NOT tolerance-scaled:
                # allocations per parked thread are deterministic for a
                # given Python version — growth is a code change.
                value = core.get(key, float("inf"))
                status = "ok" if value <= bound else "REGRESSION"
                print(f"  core {key}: {value:8.2f} "
                      f"(hard bound {bound}) {status}")
                if value > bound:
                    failures.append(
                        f"core {key} {value:.2f} exceeds the hard bound "
                        f"{bound}: per-thread state grew"
                    )

    hot_baseline = baseline.get("hotpath")
    if hot_baseline:
        hot = results.get("hotpath")
        if hot is None:
            failures.append("hotpath point missing from results "
                            "(bench_hotpath.py did not run?)")
        else:
            http = hot.get("http", {})
            bound = hot_baseline.get("writes_per_response_max")
            if bound is not None:
                for key in ("writes_per_response",
                            "writes_per_chunked_response",
                            "writes_per_error_response"):
                    value = http.get(key, float("inf"))
                    status = "ok" if value <= bound else "REGRESSION"
                    print(f"  hotpath {key}: {value:6.2f} "
                          f"(bound {bound}) {status}")
                    if value > bound:
                        failures.append(
                            f"hotpath {key} {value:.2f} exceeds {bound} "
                            f"(gathered-write path regressed)"
                        )
            if hot_baseline.get("require_flush_batching"):
                mesh = hot.get("mesh", {})
                ratio = mesh.get("frames_per_flush", 0.0)
                if mesh.get("batched_flushes", 0) <= 0 or ratio <= 1.0:
                    failures.append(
                        f"hotpath mesh flush coalescing did not engage "
                        f"(frames_per_flush={ratio}, batched_flushes="
                        f"{mesh.get('batched_flushes', 0)})"
                    )
                else:
                    print(f"  hotpath frames_per_flush: {ratio:6.2f} ok")
            bound = hot_baseline.get("max_timer_threads_per_call")
            if bound is not None:
                timers = hot.get("timers", {})
                ratio = timers.get("timer_threads_per_call", float("inf"))
                status = "ok" if ratio <= bound else "REGRESSION"
                print(f"  hotpath timer_threads_per_call: {ratio:7.4f} "
                      f"(bound {bound}) {status}")
                if ratio > bound:
                    failures.append(
                        f"hotpath timer threads regressed: "
                        f"{ratio} per call (bound {bound})"
                    )
            bound = hot_baseline.get("max_timer_threads_per_lease")
            if bound is not None:
                pool = hot.get("pool", {})
                ratio = pool.get("timer_threads_per_lease", float("inf"))
                status = "ok" if ratio <= bound else "REGRESSION"
                print(f"  hotpath timer_threads_per_lease: {ratio:7.4f} "
                      f"(bound {bound}) {status}")
                if ratio > bound:
                    failures.append(
                        f"hotpath pool-lease timer threads regressed: "
                        f"{ratio} per lease (bound {bound})"
                    )
            if hot_baseline.get("require_wakeup_economy"):
                pool = hot.get("pool", {})
                wakeups = pool.get("wheel_wakeups", float("inf"))
                fired = pool.get("wheel_fired", 0)
                if wakeups > fired + 5:
                    failures.append(
                        f"hotpath wheel wakeups ({wakeups}) outran fired "
                        f"deadlines ({fired}): the earliest-deadline "
                        f"sleeper is ticking again"
                    )
                else:
                    print(f"  hotpath wheel wakeups: {wakeups:6} for "
                          f"{fired} fired deadline(s) ok")
            bound = hot_baseline.get("allocs_per_request_max")
            if bound is not None:
                ingress = hot.get("ingress", {})
                value = ingress.get("allocs_per_request", float("inf"))
                leaked = ingress.get("pool_in_use_at_end", 0)
                status = ("ok" if value <= bound and leaked == 0
                          else "REGRESSION")
                print(f"  hotpath allocs_per_request: {value:7.4f} "
                      f"(bound {bound}, leaked leases {leaked}) {status}")
                if value > bound or leaked > 0:
                    failures.append(
                        f"hotpath ingress buffers regressed: "
                        f"{value} pool allocations per request "
                        f"(bound {bound}), {leaked} leaked lease(s)"
                    )
            if hot_baseline.get("require_recv_into"):
                ingress = hot.get("ingress", {})
                recv_intos = ingress.get("recv_into_calls", 0)
                reuses = ingress.get("pool_reuses", 0)
                if recv_intos <= 0 or reuses <= 0:
                    failures.append(
                        f"hotpath pooled ingress did not engage "
                        f"(recv_into_calls={recv_intos}, "
                        f"pool_reuses={reuses}): reads are allocating "
                        f"again"
                    )
                else:
                    print(f"  hotpath recv_into_calls: {recv_intos:6d} "
                          f"({reuses} buffer reuses) ok")
            if hot_baseline.get("require_sendfile"):
                static = hot.get("static", {})
                calls = static.get("sendfile_calls", 0)
                aio = static.get("aio_reads", -1)
                parity = static.get("byte_identical_to_fallback", False)
                if calls <= 0 or aio != 0 or not parity:
                    failures.append(
                        f"hotpath static sendfile regressed "
                        f"(sendfile_calls={calls}, aio_reads={aio}, "
                        f"byte_identical_to_fallback={parity}): the "
                        f"kernel-to-socket path is off, copying, or "
                        f"diverging from the fallback"
                    )
                else:
                    print(f"  hotpath sendfile_calls: {calls:6d} "
                          f"(0 AIO reads, fallback parity) ok")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on live-HTTP bench regressions vs the committed "
                    "baseline floor."
    )
    parser.add_argument("results", help="BENCH_live_http.json from a run")
    parser.add_argument(
        "--baseline", default="benchmarks/BENCH_live_http.baseline.json"
    )
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop below the baseline "
                             "floor (default 0.30)")
    args = parser.parse_args(argv)

    with open(args.results) as handle:
        results = json.load(handle)
    with open(args.baseline) as handle:
        baseline = json.load(handle)

    print(f"bench-trend gate: {args.results} vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    failures = check(results, baseline, args.tolerance)
    if failures:
        print("bench-trend gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("bench-trend gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
