"""Tests for the hot-path perf harness (:mod:`repro.bench.perf`).

The regression gate must (a) pass a run against its own baseline,
(b) fail a deliberate 2x counter regression, (c) ignore wall-clock
rows, (d) give allocator-dependent counters their wider allowance,
(e) flag gated counters that silently vanish from the current run, and
(f) skip rows the current run demoted to informational (quick sample
counts, or hardware where the measurement cannot gate — e.g. the
cpu_scaling speedup on a single-CPU box).
"""

import json

import pytest

from repro.bench import perf
from repro.bench.perf import PerfRow
from repro.core.dependences import StreamWindow
from tests.oracle import NaiveRelaxedPolicy


def row(bench="b", metric="m", value=10.0, unit="count", n=5, backend="window"):
    return PerfRow(bench, metric, value, unit, n, backend)


class TestCheckRows:
    def test_identical_run_passes(self):
        rows = [row(), row(metric="wall", unit="s", value=0.5)]
        assert perf.check_rows(rows, rows, tolerance=0.25) == []

    def test_two_x_regression_fails(self):
        baseline = [row(value=10.0)]
        current = [row(value=20.0)]
        problems = perf.check_rows(current, baseline, tolerance=0.25)
        assert len(problems) == 1
        assert "exceeds baseline" in problems[0]

    def test_within_tolerance_passes(self):
        # limit = 10 * 1.25 + 1 absolute slack
        assert perf.check_rows([row(value=13.5)], [row(value=10.0)], 0.25) == []
        assert perf.check_rows([row(value=13.6)], [row(value=10.0)], 0.25)

    def test_wall_clock_rows_never_gate(self):
        baseline = [row(metric="p50", unit="s", value=0.001)]
        current = [row(metric="p50", unit="s", value=100.0)]
        assert perf.check_rows(current, baseline, tolerance=0.25) == []

    def test_alloc_metrics_get_two_x_allowance(self):
        baseline = [row(metric="allocated_blocks_per_enqueue", value=40.0)]
        ok = [row(metric="allocated_blocks_per_enqueue", value=75.0)]
        bad = [row(metric="allocated_blocks_per_enqueue", value=90.0)]
        assert perf.check_rows(ok, baseline, tolerance=0.25) == []
        assert perf.check_rows(bad, baseline, tolerance=0.25)

    def test_missing_gated_counter_fails(self):
        baseline = [row()]
        problems = perf.check_rows([], baseline, tolerance=0.25)
        assert problems and "missing" in problems[0]

    def test_improvements_pass(self):
        assert perf.check_rows([row(value=1.0)], [row(value=10.0)], 0.25) == []

    def test_row_demoted_to_info_is_skipped(self):
        # The emitter downgrades a row's unit exactly when the
        # measurement cannot be made at gating fidelity; the checker
        # honors that instead of comparing a noise value to the bar.
        baseline = [row(value=0.0)]
        current = [row(value=50.0, unit="info")]
        assert perf.check_rows(current, baseline, tolerance=0.25) == []


class TestRowSerialization:
    def test_json_round_trip(self):
        rows = [row(), row(metric="wall", unit="s", value=0.25)]
        text = perf.rows_to_json(rows)
        assert perf.rows_from_json(text) == rows
        # The BENCH_perf.json schema is exactly these six keys.
        entry = json.loads(text)[0]
        assert set(entry) == {"bench", "metric", "value", "unit", "n", "backend"}


class TestSuite:
    @pytest.fixture(scope="class")
    def tiny_rows(self):
        # Tiny depths keep this a smoke test, not a benchmark.
        return perf.run_suite(quick=True, depths=(5,), probes=3)

    def test_schema_and_coverage(self, tiny_rows):
        assert all(isinstance(r, PerfRow) for r in tiny_rows)
        benches = {r.bench.split(":")[0] for r in tiny_rows}
        assert benches >= {
            "enqueue_scan",
            "enqueue_admission",
            "dispatch_throughput",
            "completion_retire",
            "cpu_scaling",
            "transfer_overhead",
            "elision",
            "sanitizer_overhead",
        }
        assert any(r.unit == perf.GATED_UNIT for r in tiny_rows)
        assert any(r.unit == "s" for r in tiny_rows)

    def test_dispatch_throughput_covers_all_backends(self, tiny_rows):
        backends = {
            r.backend for r in tiny_rows if r.bench == "dispatch_throughput"
        }
        assert backends == {"thread", "sim", "process"}

    def test_indexed_beats_naive_on_counters(self, tiny_rows):
        by_key = {(r.bench, r.metric): r.value for r in tiny_rows}
        indexed = by_key[("enqueue_scan:disjoint:indexed:d5", "scan_comparisons")]
        # The naive side is the test-support oracle on the same window.
        window = StreamWindow(policy=NaiveRelaxedPolicy())
        _bufs, probe = perf._fill_window(window, 5, "disjoint")
        window.deps_for(probe)
        assert indexed < window.scan_comparisons

    def test_self_check_passes_and_2x_fails(self, tiny_rows):
        assert perf.check_rows(tiny_rows, tiny_rows) == []
        doubled = [
            PerfRow(r.bench, r.metric, r.value * 2 + 10, r.unit, r.n, r.backend)
            if r.unit == perf.GATED_UNIT
            else r
            for r in tiny_rows
        ]
        assert perf.check_rows(doubled, tiny_rows)

    def test_cli_check_gates(self, tiny_rows, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(perf.rows_to_json(tiny_rows))
        halved = [
            PerfRow(r.bench, r.metric, max(0.0, r.value / 2 - 1), r.unit, r.n, r.backend)
            if r.unit == perf.GATED_UNIT
            else r
            for r in tiny_rows
        ]
        shrunk = tmp_path / "shrunk.json"
        shrunk.write_text(perf.rows_to_json(halved))
        argv = ["--quick", "--depths", "5", "--probes", "3", "--json", "-"]
        assert perf.main([*argv, "--check", str(baseline)]) == 0
        assert perf.main([*argv, "--check", str(shrunk)]) == 1
        assert "PERF GATE" in capsys.readouterr().err
