"""Smoke test of the benchmark harness (tier-1, a few seconds).

Runs ``run.py --check`` — one short traced run per workload — and holds
the harness to what ``BENCHMARK.json`` declares and to the isolation the
workloads were chosen for.  Numbers are not judged here: half-second
windows measure nothing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--check", "--json", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(out.read_text())


def test_declared_names_are_unique_and_every_workload_ran_clean(document):
    # ``--check`` exiting 0 (the fixture) already means: every declared
    # workload and metric was emitted exactly once per workload, finite,
    # in its declared unit, and nothing undeclared was emitted.
    declared_workloads = [entry["name"] for entry in SPEC["workloads"]]
    assert sorted(document["workloads"]) == sorted(declared_workloads)
    names = declared_workloads + [
        metric["name"] for section in ("end_to_end", "per_layer")
        for metric in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(entry["error_share"] == 0
               for entry in document["workloads"].values())


def test_clients_are_pinned_to_two_different_shards(document):
    for workload, entry in document["workloads"].items():
        expected = [0, 0] if workload == "http_static" else [0, 1]
        assert entry["placement"] == expected, workload


def test_workloads_isolate_the_layers_they_were_chosen_for(document):
    def layer(workload, name):
        return document["workloads"][workload]["per_layer"][name]["value"]

    assert layer("http_static", "mesh.calls_per_op") == 0
    assert layer("http_static", "wal.commits_per_op") == 0
    assert layer("kv_read", "wal.commits_per_op") == 0
    assert layer("cache_pipeline", "wal.commits_per_op") == 0
    # One commit on each of the two replicas of every written key.
    assert layer("kv_write_durable", "wal.commits_per_op") == pytest.approx(
        2.0, abs=0.05)
    assert layer("kv_read", "mesh.calls_per_op") > 0
    assert layer("cache_pipeline", "cache.commands_per_op") == 8
