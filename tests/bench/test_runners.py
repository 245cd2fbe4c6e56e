"""Guard the benchmark runners themselves at tiny scale.

The figure benchmarks are the reproduction's deliverable; these tests keep
their runners correct (conservation of bytes, sane rates, cap behavior)
without the full sweeps.
"""

from __future__ import annotations

import pytest

from repro.bench import fig17, fig18, fig19
from repro.bench.harness import (
    Series,
    assert_rises_then_flattens,
    assert_roughly_flat,
    format_table,
    gc_time_share,
    relative_gap,
)
from repro.bench.memory import measure_monadic_thread_bytes
from repro.simos.params import SimParams

SMALL = 2 * 1024 * 1024  # 2MB totals: seconds, not minutes


class TestFig17Runner:
    def test_monadic_conserves_bytes(self):
        result = fig17.run_monadic(8, total_bytes=SMALL)
        assert result["bytes"] == SMALL
        assert result["seconds"] > 0
        assert 0.2 < result["mbps"] < 1.5

    def test_nptl_matches_monadic_when_disk_bound(self):
        monadic = fig17.run_monadic(8, total_bytes=SMALL)
        nptl = fig17.run_nptl(8, total_bytes=SMALL)
        assert nptl is not None
        assert monadic["mbps"] == pytest.approx(nptl["mbps"], rel=0.05)

    def test_nptl_returns_none_past_cap(self):
        params = SimParams().with_overrides(ram_bytes=4 * 32 * 1024)
        assert fig17.run_nptl(5, total_bytes=SMALL, params=params) is None

    def test_queue_depth_tracks_threads(self):
        shallow = fig17.run_monadic(2, total_bytes=SMALL)
        deep = fig17.run_monadic(64, total_bytes=SMALL)
        assert deep["max_queue_depth"] > shallow["max_queue_depth"]
        assert deep["mbps"] > shallow["mbps"]


class TestFig18Runner:
    def test_monadic_conserves_bytes(self):
        result = fig18.run_monadic(0, total_bytes=SMALL)
        assert result["bytes"] >= SMALL
        assert result["cpu_share"] > 0.95  # CPU-bound by construction

    def test_monadic_beats_nptl(self):
        monadic = fig18.run_monadic(0, total_bytes=SMALL)
        nptl = fig18.run_nptl(0, total_bytes=SMALL)
        gap = relative_gap(monadic["mbps"], nptl["mbps"])
        assert 0.10 <= gap <= 0.60

    def test_idle_threads_do_not_change_result_much(self):
        base = fig18.run_monadic(0, total_bytes=SMALL)
        idle = fig18.run_monadic(500, total_bytes=SMALL)
        assert idle["mbps"] == pytest.approx(base["mbps"], rel=0.10)

    def test_nptl_cap(self):
        params = SimParams().with_overrides(ram_bytes=300 * 32 * 1024)
        # 300 stacks cannot hold 256 workers + 100 idlers.
        assert fig18.run_nptl(100, total_bytes=SMALL, params=params) is None


class TestFig19Runner:
    def test_monadic_point(self):
        result = fig19.run_monadic(8, n_files=512, responses_target=60)
        assert result["responses"] >= 60
        assert 0.5 < result["mbps"] < 12.5  # under the wire cap
        assert result["disk_reads"] > 0

    def test_apache_point(self):
        result = fig19.run_apache(8, n_files=512, responses_target=60)
        assert result["responses"] >= 60
        assert result["workers"] == 8
        assert 0.5 < result["mbps"] < 12.5

    def test_apache_worker_cap(self):
        result = fig19.run_apache(
            32, n_files=512, responses_target=40, max_clients=4
        )
        assert result["workers"] == 4
        assert result["responses"] >= 40

    def test_responses_scale_with_target(self):
        small = fig19.run_monadic(4, n_files=512, responses_target=30)
        large = fig19.run_monadic(4, n_files=512, responses_target=90)
        assert large["responses"] >= 3 * small["responses"] - 10


class TestMemoryRunner:
    def test_reports_positive_flat_cost(self):
        a = measure_monadic_thread_bytes(2_000, use_do_notation=False)
        b = measure_monadic_thread_bytes(4_000, use_do_notation=False)
        assert 100 < a["bytes_per_thread"] < 600  # 489 measured on 3.11
        assert b["bytes_per_thread"] == pytest.approx(
            a["bytes_per_thread"], rel=0.2
        )

    def test_do_thread_footprint_has_a_hard_ceiling(self):
        # The paper's §5.1 per-thread memory claim as a gate: a parked
        # ``@do`` thread (generator frame + trace node + TCB) measured
        # 1049 B in 13.9 allocations on 3.11.  Allocation counts are
        # deterministic for a Python version, so growth here is a code
        # change in the interpreter's per-thread state, not noise.
        result = measure_monadic_thread_bytes(2_000, use_do_notation=True)
        assert result["bytes_per_thread"] <= 1_200
        assert result["blocks_per_thread"] <= 16


class TestHarness:
    def test_format_table_alignment(self):
        table = format_table(
            "T", "x",
            [Series("alpha", {1: 1.0, 2: 2.0}), Series("beta", {2: 4.0})],
        )
        assert "alpha" in table and "beta" in table
        assert "-" in table.splitlines()[4]  # missing cell placeholder

    def test_rises_then_flattens_accepts_good_curve(self):
        series = Series("s", {1: 1.0, 10: 1.2, 100: 1.3, 1000: 1.29})
        assert_rises_then_flattens(series, min_total_gain=0.2)

    def test_rises_then_flattens_rejects_flat(self):
        series = Series("s", {1: 1.0, 10: 1.01, 100: 1.0, 1000: 1.0})
        with pytest.raises(AssertionError):
            assert_rises_then_flattens(series, min_total_gain=0.2)

    def test_rises_then_flattens_rejects_collapse(self):
        series = Series("s", {1: 1.0, 10: 1.5, 100: 1.6, 1000: 0.5})
        with pytest.raises(AssertionError):
            assert_rises_then_flattens(series, min_total_gain=0.2)

    def test_roughly_flat(self):
        assert_roughly_flat(Series("s", {1: 10.0, 2: 10.5, 3: 9.8}))
        with pytest.raises(AssertionError):
            assert_roughly_flat(Series("s", {1: 10.0, 2: 20.0}), 0.25)

    def test_gc_time_share_runs(self):
        result, share = gc_time_share(lambda: sum(range(10_000)))
        assert result == sum(range(10_000))
        assert 0.0 <= share <= 1.0
