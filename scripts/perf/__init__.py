"""csrlcheck perf ledger tooling (DESIGN.md section 3h).

Diffs bench reports and ledger histories so performance regressions are
caught mechanically instead of by eyeballing BENCH_*.json:

  * **Hard gates** cover the deterministic counters (SpMV/SpMM call and
    cost-model counts, rows_active, sweep and iteration counters).  The kernels are bit-identical across thread counts by
    construction, so these counters must match exactly between runs of
    the same code — any increase is a regression and fails the check,
    any decrease is an improvement that warrants refreshing the
    committed baselines.  Only the thread-pool dispatch statistics
    (``pool/``) are excluded: how work splits between inline runs and
    queued tasks legitimately depends on the host.

  * **Soft gates** cover wall time (the per-workload medians under the
    report's ``reps`` key).  Wall time is noisy on shared CI hosts, so
    violations warn by default and only fail under ``--strict-wall``.
    The noise band comes from the ledger history when at least
    ``MIN_HISTORY`` medians are available (median +- k * 1.4826 * MAD,
    the consistent sigma estimate), and falls back to a fixed relative
    tolerance around the baseline otherwise.

Inputs: ``BENCH_*_obs.json`` documents (schema csrl-bench-obs-v1),
``*.report.json`` run reports (csrl-run-report-v1), ledger lines
(csrl-bench-ledger-v1, unwrapped automatically), and the
parallel-scaling document (csrl-bench-parallel-scaling-v1).

Entry points: ``python3 scripts/perf/run.py diff A B``,
``... baseline-check BASELINE_DIR CURRENT_DIR``, ``... ledger FILE``
(or the ``perf`` CMake target, which runs baseline-check against
``bench/baselines/``).  Every mode writes PERF_report.json
(csrl-perf-report-v1) and prints a markdown table.
"""

__all__ = ["ledger", "gates", "diff", "cli"]

MIN_HISTORY = 3
