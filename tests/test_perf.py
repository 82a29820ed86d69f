#!/usr/bin/env python3
"""Unit tests for scripts/perf: report loaders (all four schemas plus
ledger unwrapping), the exact hard gates, the MAD/fallback wall-time
bands, and the CLI exit-code contract — a seeded spmv inflation must
exit nonzero while an identical pair diffs clean.

Run directly (python3 tests/test_perf.py) or via ctest (label `fast`,
registered in tests/CMakeLists.txt as perf_selftest).
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from perf import cli, diff, gates, ledger  # noqa: E402


def obs_doc(counters=None, reps=None, bench="kernels"):
    """A minimal csrl-bench-obs-v1 document."""
    return {
        "schema": "csrl-bench-obs-v1",
        "bench": bench,
        "simd_isa": "sse2",
        "threads": 1,
        "spans_dropped": 0,
        "reps": reps or [],
        "counters": counters or {},
        "gauges": {},
        "histograms": {},
        "spans": [],
    }


def rep(name, median_ms, min_ms=None):
    return {"name": name, "reps": 5, "median_ms": median_ms,
            "min_ms": min_ms if min_ms is not None else median_ms}


BASE_COUNTERS = {
    "spmv/multiply": 1000,
    "matrix/spmv/rows_active": 52,
    "matrix/spmm/block_products": 400,
    "uniformisation/steady_state_cutoffs": 0,
    "cost/spmv/flops": 64000,
    "cost/spmv/bytes": 780800,
    "pool/inline_runs": 3210,
}


class LoaderTest(unittest.TestCase):
    def test_obs_doc_normalises(self):
        r = ledger.normalise(obs_doc(BASE_COUNTERS), "x.json")
        self.assertEqual(r.name, "kernels")
        self.assertEqual(r.counters["spmv/multiply"], 1000)

    def test_run_report_normalises(self):
        doc = {"schema": "csrl-run-report-v1", "engine": "sericola",
               "counters": {"spmv/multiply": 7}, "wall_seconds": 0.25}
        r = ledger.normalise(doc, "x.report.json")
        self.assertEqual(r.name, "sericola")
        self.assertEqual(r.wall_seconds, 0.25)

    def test_parallel_scaling_doc_normalises(self):
        doc = {"schema": "csrl-bench-parallel-scaling-v1",
               "bench": "parallel_scaling", "scaling_measured": False,
               "reps": [rep("sericola_q3", 98.7)], "records": [],
               "single_thread_profiles": []}
        r = ledger.normalise(doc, "x.json")
        self.assertEqual(r.rep_medians(), {"sericola_q3": 98.7})
        self.assertEqual(r.counters, {})

    def test_ledger_line_unwraps_report_and_keeps_stamp(self):
        line = {"schema": "csrl-bench-ledger-v1", "bench": "kernels",
                "unix_time": 1, "git_sha": "abc123",
                "build": {"simd_isa": "sse2"}, "hardware": {},
                "report": obs_doc(BASE_COUNTERS)}
        r = ledger.normalise(line, "h.jsonl:1")
        self.assertEqual(r.counters, BASE_COUNTERS)
        self.assertEqual(r.stamp["git_sha"], "abc123")

    def test_unknown_schema_rejected(self):
        with self.assertRaises(ledger.ReportError):
            ledger.normalise({"schema": "something-else"}, "x.json")

    def test_ledger_line_without_report_rejected(self):
        with self.assertRaises(ledger.ReportError):
            ledger.normalise(
                {"schema": "csrl-bench-ledger-v1", "report": None}, "h:1")


class HardGateTest(unittest.TestCase):
    def test_identical_counters_produce_nothing(self):
        self.assertEqual(gates.hard_gate(BASE_COUNTERS, BASE_COUNTERS), [])

    def test_increase_is_regression(self):
        cur = dict(BASE_COUNTERS, **{"spmv/multiply": 1001})
        findings = gates.hard_gate(BASE_COUNTERS, cur)
        self.assertEqual([f.kind for f in findings], ["hard-regression"])
        self.assertTrue(findings[0].is_hard_failure)
        self.assertEqual(findings[0].metric, "spmv/multiply")

    def test_decrease_is_improvement_not_failure(self):
        cur = dict(BASE_COUNTERS, **{"cost/spmv/flops": 63000})
        findings = gates.hard_gate(BASE_COUNTERS, cur)
        self.assertEqual([f.kind for f in findings], ["hard-improvement"])
        self.assertFalse(findings[0].is_hard_failure)

    def test_new_counter_gates_from_zero(self):
        cur = dict(BASE_COUNTERS, **{"uniformisation/steady_state_cutoffs": 3})
        findings = gates.hard_gate(BASE_COUNTERS, cur)
        self.assertEqual([f.kind for f in findings], ["hard-regression"])

    def test_pool_counters_excluded(self):
        cur = dict(BASE_COUNTERS, **{"pool/inline_runs": 9999})
        self.assertEqual(gates.hard_gate(BASE_COUNTERS, cur), [])


class SoftGateTest(unittest.TestCase):
    def test_within_fallback_tolerance_passes(self):
        findings = gates.soft_gate({"a": 100.0}, {"a": 120.0})
        self.assertEqual(findings, [])

    def test_beyond_fallback_tolerance_warns(self):
        findings = gates.soft_gate({"a": 100.0}, {"a": 200.0})
        self.assertEqual([f.kind for f in findings], ["soft-regression"])

    def test_mad_band_used_with_enough_history(self):
        history = {"a": [100.0, 101.0, 99.0, 100.5]}
        # Tight history -> the MIN_REL_BAND floor applies: band is 10%
        # of the history median, so 108 passes and 150 warns.
        self.assertEqual(
            gates.soft_gate({"a": 100.0}, {"a": 108.0}, history=history), [])
        findings = gates.soft_gate({"a": 100.0}, {"a": 150.0},
                                   history=history)
        self.assertEqual([f.kind for f in findings], ["soft-regression"])

    def test_disjoint_labels_skipped(self):
        self.assertEqual(gates.soft_gate({"a": 1.0}, {"b": 1.0}), [])

    def test_soft_never_hard_fails(self):
        result = diff.DiffResult(
            "x", "b", "c",
            gates.soft_gate({"a": 100.0}, {"a": 500.0}))
        self.assertTrue(diff.passed([result]))
        self.assertFalse(diff.passed([result], strict_wall=True))


class CliTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = Path(self.dir.name)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        p = self.path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)

    def test_identical_reports_diff_clean(self):
        base = self.write("base.json",
                          obs_doc(BASE_COUNTERS, [rep("spmv", 10.0)]))
        cur = self.write("cur.json",
                         obs_doc(BASE_COUNTERS, [rep("spmv", 10.4)]))
        code = cli.main(["diff", base, cur, "--report", "none"])
        self.assertEqual(code, 0)

    def test_seeded_spmv_inflation_exits_nonzero(self):
        inflated = dict(BASE_COUNTERS)
        inflated["spmv/multiply"] += 100
        inflated["cost/spmv/flops"] += 6400
        base = self.write("base.json", obs_doc(BASE_COUNTERS))
        cur = self.write("cur.json", obs_doc(inflated))
        report_path = self.path / "PERF_report.json"
        code = cli.main(["diff", base, cur,
                         "--report", str(report_path)])
        self.assertEqual(code, 1)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        self.assertEqual(report["schema"], "csrl-perf-report-v1")
        self.assertFalse(report["passed"])
        metrics = {f["metric"] for f in report["pairs"][0]["findings"]}
        self.assertEqual(metrics, {"spmv/multiply", "cost/spmv/flops"})

    def test_baseline_check_pairs_by_filename(self):
        basedir = self.path / "baselines"
        curdir = self.path / "current"
        basedir.mkdir()
        curdir.mkdir()
        (basedir / "BENCH_kernels_obs.json").write_text(
            json.dumps(obs_doc(BASE_COUNTERS)), encoding="utf-8")
        (curdir / "BENCH_kernels_obs.json").write_text(
            json.dumps(obs_doc(BASE_COUNTERS)), encoding="utf-8")
        code = cli.main(["baseline-check", str(basedir), str(curdir),
                         "--report", "none"])
        self.assertEqual(code, 0)

    def test_baseline_check_without_pairs_is_usage_error(self):
        basedir = self.path / "baselines"
        curdir = self.path / "current"
        basedir.mkdir()
        curdir.mkdir()
        code = cli.main(["baseline-check", str(basedir), str(curdir),
                         "--report", "none"])
        self.assertEqual(code, 2)

    def test_ledger_mode_compares_newest_against_history(self):
        lines = []
        for median in (100.0, 101.0, 99.0, 250.0):
            lines.append(json.dumps({
                "schema": "csrl-bench-ledger-v1", "bench": "kernels",
                "unix_time": 0, "git_sha": "abc", "build": {},
                "hardware": {},
                "report": obs_doc(BASE_COUNTERS, [rep("spmv", median)]),
            }))
        history = self.path / "BENCH_history.jsonl"
        history.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # Counters identical -> wall-only findings -> passes by default,
        # fails under --strict-wall.
        self.assertEqual(
            cli.main(["ledger", str(history), "--report", "none"]), 0)
        self.assertEqual(
            cli.main(["ledger", str(history), "--report", "none",
                      "--strict-wall"]), 1)

    def test_markdown_table_lists_findings(self):
        inflated = dict(BASE_COUNTERS, **{"spmv/multiply": 2000})
        result = diff.diff_reports(
            ledger.normalise(obs_doc(BASE_COUNTERS), "a"),
            ledger.normalise(obs_doc(inflated), "b"))
        table = diff.markdown_table([result])
        self.assertIn("HARD FAIL", table)
        self.assertIn("spmv/multiply", table)
        self.assertEqual(diff.markdown_table([]), "")


if __name__ == "__main__":
    unittest.main()
