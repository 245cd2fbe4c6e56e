"""The repo benchmark: four pinned closed-loop workloads measured from
outside over loopback sockets.  See ``README.md`` beside this file.

One workload, one run (the form the benchmark driver calls)::

    python3 benchmarks/perf/run.py --workload kv_read --seed 7 \
        --seconds 20 --trace 0

prints every metric by name and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs the whole set — ``PASSES`` untraced runs
of every workload, interleaved, then one traced run each — prints the
table, writes ``--json OUT`` and appends one line to ``history.jsonl``.
``--quick`` shrinks that to one short traced run per workload (a smoke
test); ``--check`` additionally validates ``BENCHMARK.json`` against
what the runs emitted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.api import ClusterServer  # noqa: E402

import layers  # noqa: E402
from loadgen import Client, Generator, OpFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HISTORY = HERE / "history.jsonl"
#: Git-ignored scratch: trace dumps, WAL directories, child results.
OUT = HERE / "out"

CLIENTS = 2
#: A run's measured time is split into back-to-back rounds of this
#: length; the value of a metric is the median over them, so a burst of
#: noise the probe does not cancel cannot move it.
ROUND_S = 2.0
WARMUP_S = 2.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Untraced runs per workload in a full set.
PASSES = 10
#: CPU nanoseconds ``loadgen.probe`` takes on the nominal machine every
#: bounded time is expressed on.  On the reference box it takes 5 us on
#: ``http_static`` and 13 us on ``kv_write_durable`` (it runs on whatever
#: the caches still hold); the constant only fixes the unit.
PROBE_NOMINAL_NS = 8000
#: The one CPU the generator and every shard share.  Left to the kernel,
#: or spread over the CPUs, processes that talk to each other flip
#: between being woken beside the waker and across CPUs (2x in latency),
#: and the vCPUs of a small sandbox slow each other down by up to 60%
#: when both are busy.  One CPU has one regime: it is always busy, every
#: message is a context switch, and throughput is exactly one over the
#: CPU time an op costs.  The last CPU, because the first one is where
#: the kernel and whoever started the benchmark do their own work.
CPU = max(os.sched_getaffinity(0))
_PAGE = os.sysconf("SC_PAGE_SIZE")


class BenchFailure(Exception):
    """The program answered wrongly, or its counters disagree with ours."""


# ----------------------------------------------------------------------
# One deployment: a cluster, two pinned clients, populated.
# ----------------------------------------------------------------------
def _accept_counts(cluster, workload) -> list[int]:
    workers = cluster.stats()["workers"]
    if any(worker is None for worker in workers):
        raise BenchFailure("a shard did not answer the stats request")
    if workload.cache_clients:
        return [worker["app"]["cache_connections"] for worker in workers]
    return [worker["accepted"] for worker in workers]


def _dial_pinned(cluster, workload) -> tuple[list[Client], list[int]]:
    """Client ``i`` on shard ``i``: ``SO_REUSEPORT`` hashes each
    connection to a shard, so re-dial until the per-worker accept
    counters say the connection landed where the workload pins it."""
    port = cluster.cache_port if workload.cache_clients else cluster.port
    clients = []
    placement = []
    for index in range(CLIENTS):
        target = index % workload.shards
        for _attempt in range(500):
            before = _accept_counts(cluster, workload)
            sock = socket.create_connection(("127.0.0.1", port))
            deadline = time.monotonic() + 5.0
            while True:
                after = _accept_counts(cluster, workload)
                landed = [shard_index for shard_index, (old, new)
                          in enumerate(zip(before, after)) if new > old]
                if landed:
                    break
                if time.monotonic() > deadline:
                    raise BenchFailure("a dialed connection was never "
                                       "accepted")
            if landed == [target]:
                clients.append(Client(sock, index))
                placement += landed
                break
            sock.close()
        else:
            raise BenchFailure(f"could not place client {index} on shard "
                               f"{target}")
    return clients, placement


def _queued(ops_by_client: list[list]):
    """A ``next_op`` that hands each client its own list, in order."""
    queues = [iter(ops) for ops in ops_by_client]
    return lambda client: next(queues[client.index], None)


class Deployment:
    """A started, populated cluster with its pinned generator."""

    def __init__(self, name: str, seed: int, quick: bool,
                 trace_path: str | None = None) -> None:
        self.workload = workload = WORKLOADS[name](seed, quick)
        self.traced = trace_path is not None
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
        self.cluster = None
        self.generator = None
        try:
            t0 = time.perf_counter()
            self.cluster = ClusterServer(
                workload.factory(trace_path), shards=workload.shards,
                # No monitor thread: the generator process stays
                # single-threaded, and a dead shard is a failed run.
                respawn=False,
                **workload.cluster_kwargs(self.scratch),
            ).start()
            self.pids = self.cluster.worker_pids()
            t1 = time.perf_counter()
            clients, self.placement = _dial_pinned(self.cluster, workload)
            self.generator = Generator(clients)
            t2 = time.perf_counter()
            self.generator.drive(_queued(
                [workload.populate_ops(i) for i in range(CLIENTS)]))
            t3 = time.perf_counter()
        except BaseException:
            self.close()
            raise
        self.timings = {"start_s": t1 - t0, "dial_s": t2 - t1,
                        "populate_s": t3 - t2}
        self.setup_s = t3 - t0

    def close(self) -> None:
        if self.generator is not None:
            self.generator.close()
        if self.cluster is not None:
            if not self.traced:
                # Graceful stop of a replicated shard pushes its whole
                # store to its peers (seconds); nothing is measured after
                # this point, so untraced shards are simply killed.
                # Traced shards stop gracefully: the stop hook dumps
                # their spans.
                for pid in self.cluster.worker_pids():
                    if pid is not None:
                        os.kill(pid, signal.SIGKILL)
            self.cluster.stop()
        shutil.rmtree(self.scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# Measuring one deployment.
# ----------------------------------------------------------------------
def _server_cpu_s(pids) -> float:
    """CPU seconds every thread of the shards has run so far, from the
    scheduler's own nanosecond accounting."""
    total_ns = 0
    for pid in pids:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total_ns += int(fh.read().split()[0])
    return total_ns / 1e9


def _server_rss_mb(pids) -> float:
    pages = 0
    for pid in pids:
        with open(f"/proc/{pid}/statm") as fh:
            pages += int(fh.read().split()[1])
    return pages * _PAGE / 1e6


def _percentile(ordered: list, share: float):
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class Round:
    """One timed window, raw and at nominal speed.

    The box's speed moves by tens of percent within seconds, and CPU time
    moves with it.  ``speed`` is how much slower than the nominal machine
    the box was during this window (mean probe cost / nominal cost).
    Everything runs on one CPU, so the window's wall time splits into
    time that CPU was busy, which scales with speed, and time it idled
    waiting for a timer or the disk, which does not: the nominal window
    is ``idle + busy / speed`` long, and latencies stretch with it.
    """

    def __init__(self, window, server_cpu_s: float) -> None:
        self.speed = window.probe_ns / window.ops / PROBE_NOMINAL_NS
        busy_s = min(window.gen_cpu_s + server_cpu_s, window.elapsed_s)
        nominal_s = window.elapsed_s - busy_s + busy_s / self.speed
        self.stretch = nominal_s / window.elapsed_s
        self.latencies_ns = sorted(window.latencies_ns)
        server_cpu_us = server_cpu_s / window.ops * 1e6
        self.raw = {
            "throughput_ops_s": window.ops / window.elapsed_s,
            "latency_p99_ms": _percentile(self.latencies_ns, 0.99) / 1e6,
            "server_cpu_us_per_op": server_cpu_us,
        }
        self.nominal = {
            "throughput_ops_s": window.ops / nominal_s,
            "latency_p99_ms": self.raw["latency_p99_ms"] * self.stretch,
            "server_cpu_us_per_op": server_cpu_us / self.speed,
        }


class Measurement:
    """Timed rounds against one deployment, verified and cross-checked."""

    def __init__(self, deployment: Deployment, seconds: float) -> None:
        workload = deployment.workload
        generator = deployment.generator
        cluster = deployment.cluster
        self.timings = deployment.timings
        generator.drive(workload.next_op, min(WARMUP_S, seconds / 4))
        before = cluster.stats()
        cpu = _server_cpu_s(deployment.pids)
        count = max(1, round(seconds / ROUND_S))
        self.windows = []
        self.rounds = []
        for _ in range(count):
            window = generator.drive(workload.next_op, seconds / count)
            now = _server_cpu_s(deployment.pids)
            self.windows.append(window)
            self.rounds.append(Round(window, now - cpu))
            cpu = now
        after = cluster.stats()
        self.rss_mb = _server_rss_mb(deployment.pids)
        self.ops = sum(window.ops for window in self.windows)
        self.gauges = layers.flatten(after)
        self.counters = layers.delta(layers.flatten(before), self.gauges)
        # The servers' own count of what we sent must equal ours.
        counted = (workload.server_ops(after["aggregate"])
                   - workload.server_ops(before["aggregate"]))
        if counted != self.ops * workload.server_ops_per_op:
            raise BenchFailure(
                f"{workload.name}: the cluster counted {counted} ops, the "
                f"clients {self.ops} x {workload.server_ops_per_op}")
        # Every acknowledged write must read back through the other shard.
        generator.drive(_queued(
            [workload.final_ops(i) for i in range(CLIENTS)]))

    def median(self, which: str, metric: str) -> float:
        return statistics.median(
            getattr(round_, which)[metric] for round_ in self.rounds)

    def speed(self) -> float:
        return statistics.median(round_.speed for round_ in self.rounds)

    def p50_ms(self, nominal: bool) -> float:
        """Median latency over every op of the run.  A burst of noise
        that spoils one round cannot move the median of all ops, so it
        is taken over the pooled samples; the 99th percentile can be
        moved, so it is taken per round and then the median over
        rounds."""
        pooled = sorted(
            latency * (round_.stretch if nominal else 1.0)
            for round_ in self.rounds for latency in round_.latencies_ns)
        return _percentile(pooled, 0.50) / 1e6

    def end_to_end(self, setup_s: float) -> tuple[dict, dict]:
        """``(bounded metrics at nominal speed, the same numbers raw)``."""
        def section(which: str) -> dict:
            return {
                "throughput_ops_s": (
                    self.median(which, "throughput_ops_s"), "ops/s"),
                "latency_p50_ms": (self.p50_ms(which == "nominal"), "ms"),
                "latency_p99_ms": (
                    self.median(which, "latency_p99_ms"), "ms"),
                "server_cpu_us_per_op": (
                    self.median(which, "server_cpu_us_per_op"), "us"),
            }

        bounded = section("nominal")
        bounded["server_rss_mb"] = (self.rss_mb, "MB")
        # Set-up is CPU work on the same CPU, seconds before the rounds.
        bounded["setup_s"] = (setup_s / self.speed(), "s")
        return bounded, section("raw")


def run_one(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """One run of one workload; returns the full result document."""
    attempted = failed = 0
    deployments: list[Deployment] = []
    # Before anything is forked: the shards inherit it.
    os.sched_setaffinity(0, {CPU})

    def deploy(trace_path=None) -> Deployment:
        deployment = Deployment(name, seed, quick, trace_path)
        deployments.append(deployment)
        return deployment

    def retire(deployment: Deployment) -> None:
        nonlocal attempted, failed
        deployments.remove(deployment)
        attempted += deployment.generator.attempted
        failed += deployment.generator.failed
        deployment.close()

    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace)}
    try:
        setups = []
        if not trace and not quick:
            # Extra set-ups only to time them: setup_s is a median.
            for _ in range(SETUPS - 1):
                spare = deploy()
                setups.append(spare.setup_s)
                retire(spare)
        share = seconds / 2 if trace else seconds
        plain_deployment = deploy()
        setups.append(plain_deployment.setup_s)
        plain = Measurement(plain_deployment, share)
        retire(plain_deployment)
        result["end_to_end"], result["raw"] = plain.end_to_end(
            statistics.median(setups))
        result["placement"] = plain_deployment.placement
        result["rounds"] = len(plain.rounds)
        result["latency_samples_per_round"] = plain.ops // len(plain.rounds)
        if trace:
            traced_deployment = deploy(str(OUT / f"trace-{name}"))
            traced = Measurement(traced_deployment, share)
            retire(traced_deployment)
            overhead = 1.0 - (
                traced.median("nominal", "throughput_ops_s")
                / plain.median("nominal", "throughput_ops_s"))
            result["per_layer"] = layers.per_layer(
                plain_deployment.workload, plain, traced, overhead)
            # The raw numbers have no bound, so they are declared with
            # the per-layer metrics (the generator is a layer too).
            result["per_layer"].update(
                (f"raw.{metric}", value)
                for metric, value in result["raw"].items())
        result["correct"] = True
    except (OpFailed, BenchFailure) as problem:
        print(f"FAILED: {problem}", file=sys.stderr)
        result["correct"] = False
    finally:
        for deployment in list(deployments):
            retire(deployment)
    result["attempted"] = max(attempted, 1)
    # A counter cross-check can fail with every single op verified.
    result["failed"] = failed if result["correct"] else max(failed, 1)
    return result


def _contract_line(result: dict) -> str:
    """The driver's last line: exactly the metrics ``BENCHMARK.json``
    declares for this trace mode."""
    section = "per_layer" if result["trace"] else "end_to_end"
    measured = result.get(section, {})
    metrics = {}
    if result["correct"]:
        for declared in SPEC[section]:
            value, unit = measured[declared["name"]]
            metrics[declared["name"]] = {"value": value, "unit": unit}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def _print_metrics(result: dict) -> None:
    rows = dict(result.get("end_to_end", {}))
    rows.update((f"raw.{metric}", value)
                for metric, value in result.get("raw", {}).items())
    rows.update(result.get("per_layer", {}))
    for metric, (value, unit) in rows.items():
        print(f"{result['workload']:18s} {metric:34s} {value:14.4f} {unit}")


# ----------------------------------------------------------------------
# The whole set (what a human runs), history, and the self-check.
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, trace: int,
           quick: bool) -> dict:
    """One run in a fresh process — exactly what the driver does — so
    every run forks its shards from the same small parent."""
    with tempfile.NamedTemporaryFile(dir=OUT, suffix=".json") as out:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--json", out.name]
        if quick:
            command.append("--quick")
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        result = json.loads(Path(out.name).read_text())
    if done.returncode != 0 or not result["correct"]:
        raise BenchFailure(f"{name}: run failed (exit {done.returncode})")
    return result


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _summary(values: list[float]) -> dict:
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values),
            "iqr": quartiles[2] - quartiles[0],
            "min": min(values), "max": max(values), "values": values}


def run_set(seed: int, quick: bool) -> dict:
    seconds = 0.5 if quick else SPEC["run_seconds"]
    names = [entry["name"] for entry in SPEC["workloads"]]
    untraced = {name: [] for name in names}
    if not quick:
        # Interleaved (A B C D, A B C D, ...): slow drift of the box
        # lands on every workload alike instead of on the last one.
        for number in range(PASSES):
            for name in names:
                print(f"pass {number + 1}/{PASSES} {name}", file=sys.stderr)
                untraced[name].append(
                    _child(name, seed + number, seconds, 0, False))
    document = {
        "git_sha": _git_sha(), "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "round_s": ROUND_S,
        "run_seconds": seconds, "passes": 0 if quick else PASSES,
        "workloads": {},
    }
    for name in names:
        print(f"traced {name}", file=sys.stderr)
        traced = _child(name, seed, seconds, 1, quick)
        # A quick set has only the traced run's untraced half to show.
        runs = untraced[name] or [traced]
        entry = {
            "placement": traced["placement"],
            **{
                section: {
                    metric: dict(
                        _summary([run[section][metric][0] for run in runs]),
                        unit=unit)
                    for metric, (_value, unit) in runs[0][section].items()
                }
                for section in ("end_to_end", "raw")
            },
            "error_share": sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs),
            "per_layer": {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit) in traced["per_layer"].items()
            },
        }
        document["workloads"][name] = entry
    return document


def _print_set(document: dict) -> None:
    for name, entry in document["workloads"].items():
        for section, prefix in (("end_to_end", ""), ("raw", "raw.")):
            for metric, summary in entry[section].items():
                print(f"{name:18s} {prefix + metric:34s} "
                      f"{summary['median']:14.4f} {summary['unit']:6s} "
                      f"iqr {summary['iqr']:.4f} min {summary['min']:.4f} "
                      f"max {summary['max']:.4f}")
        print(f"{name:18s} {'error_share':34s} "
              f"{entry['error_share']:14.4f} ratio")
        for metric, item in entry["per_layer"].items():
            print(f"{name:18s} {metric:34s} {item['value']:14.4f} "
                  f"{item['unit']}")


def _append_history(document: dict) -> None:
    line = {key: value for key, value in document.items()
            if key != "workloads"}
    line["workloads"] = {
        name: {prefix + metric: {"median": summary["median"],
                                 "iqr": summary["iqr"]}
               for section, prefix in (("end_to_end", ""), ("raw", "raw."))
               for metric, summary in entry[section].items()}
        for name, entry in document["workloads"].items()
    }
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(line) + "\n")


def check(document: dict) -> list[str]:
    """``BENCHMARK.json`` against what the runs emitted: same workloads,
    same metric names, same units, finite values."""
    problems = []
    declared_workloads = [entry["name"] for entry in SPEC["workloads"]]
    if sorted(declared_workloads) != sorted(WORKLOADS):
        problems.append(f"workloads declared {declared_workloads}, "
                        f"implemented {sorted(WORKLOADS)}")
    for name, entry in document["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            emitted = entry[section]
            declared = {item["name"]: item for item in SPEC[section]}
            for missing in declared.keys() - emitted.keys():
                problems.append(f"{name}: {section} {missing} not emitted")
            for extra in emitted.keys() - declared.keys():
                problems.append(f"{name}: {section} {extra} not declared")
            for metric in declared.keys() & emitted.keys():
                item = emitted[metric]
                value = item.get("median", item.get("value"))
                if item["unit"] != declared[metric]["unit"]:
                    problems.append(
                        f"{name}: {metric} emitted in {item['unit']}, "
                        f"declared in {declared[metric]['unit']}")
                if not math.isfinite(value):
                    problems.append(f"{name}: {metric} is {value}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full result document here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: short, one round, 64 keys")
    parser.add_argument("--check", action="store_true",
                        help="quick set, then validate BENCHMARK.json "
                             "against it")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    if args.workload:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.quick)
        if args.json:
            Path(args.json).write_text(json.dumps(result))
        _print_metrics(result)
        print(_contract_line(result))
        return 0 if result["correct"] else 1
    try:
        document = run_set(args.seed, args.quick or args.check)
    except BenchFailure as problem:
        print(f"FAILED: {problem}", file=sys.stderr)
        return 1
    _print_set(document)
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=1))
    if args.check:
        problems = check(document)
        for problem in problems:
            print(f"CHECK: {problem}", file=sys.stderr)
        return 1 if problems else 0
    if not args.quick:
        _append_history(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
