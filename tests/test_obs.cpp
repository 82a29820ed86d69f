// Tests for the observability layer (src/obs/): metric shard merging
// across pool threads, span nesting and export ordering, JSON stability,
// the RunReport pipeline through Checker::check, the span-path
// self-location of contract violations, and — contracts-style negative
// coverage — that the dormant hot path performs no allocations.
//
// Every CSRL_* observability macro appears in this file, so compiling
// the test tree with -DCSRL_OBS=OFF proves the macro surface stays
// source-compatible in the compiled-out gear; expectations that need
// recorded data are gated on CSRL_OBS_DISABLED.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "obs/json_writer.hpp"
#include "obs/report.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

// Global allocation meter for the dormant-path test.  Counting is only
// switched on inside that test, so the override stays invisible to the
// rest of the binary.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace csrl {
namespace {

/// 3-state MRM for the report tests: 0 --2--> 1, 0 --1--> 2, 1 --1--> 0;
/// 2 absorbing.  Rewards 1, 2, 3; state 2 labelled "goal".
Mrm model() {
  CsrBuilder b(3, 3);
  b.add(0, 1, 2.0);
  b.add(0, 2, 1.0);
  b.add(1, 0, 1.0);
  Labelling l(3);
  l.add_label(2, "goal");
  return Mrm(Ctmc(b.build()), {1.0, 2.0, 3.0}, std::move(l), 0);
}

/// One pass over every kind of observability site, at fixed nesting
/// depth; used by the merge test (counting) and the dormant test
/// (allocation-free when recording is off).
void touch_all_sites([[maybe_unused]] std::size_t amount) {
  CSRL_SPAN("test/outer");
  {
    CSRL_SPAN("test/inner");
    CSRL_HIST_SCOPE("test/touch_hist_scope");
    CSRL_COUNT("test/touch_counter", amount);
    CSRL_GAUGE("test/touch_gauge", static_cast<double>(amount));
    CSRL_HIST("test/touch_hist", static_cast<double>(amount));
  }
}

TEST(ObsMetrics, CountersMergeAcrossPoolThreads) {
  obs::reset_all();
  const obs::ScopedRecording rec(true);
  const obs::MetricsSnapshot before = obs::snapshot_metrics();

  const ThreadPool pool(4);
  pool.parallel_for(0, 997, 1,
                    []([[maybe_unused]] std::size_t lo,
                       [[maybe_unused]] std::size_t hi) {
                      CSRL_COUNT("test/merge", hi - lo);
                    });

  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, obs::snapshot_metrics());
#ifdef CSRL_OBS_DISABLED
  EXPECT_EQ(delta.counter("test/merge"), 0u);
#else
  EXPECT_EQ(delta.counter("test/merge"), 997u);
#endif
}

TEST(ObsMetrics, ForceSerialGuardYieldsIdenticalTotals) {
  obs::reset_all();
  const obs::ScopedRecording rec(true);
  const ThreadPool pool(4);

  const auto run_once = [&pool] {
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    pool.parallel_for(0, 512, 1,
                      []([[maybe_unused]] std::size_t lo,
                         [[maybe_unused]] std::size_t hi) {
                        CSRL_COUNT("test/serial_merge", hi - lo);
                        CSRL_HIST("test/serial_hist",
                                  static_cast<double>(hi - lo));
                      });
    return obs::metrics_delta(before, obs::snapshot_metrics());
  };

  const obs::MetricsSnapshot parallel_delta = run_once();
  ForceSerialGuard serial;
  const obs::MetricsSnapshot serial_delta = run_once();

  EXPECT_EQ(parallel_delta.counter("test/serial_merge"),
            serial_delta.counter("test/serial_merge"));
#ifndef CSRL_OBS_DISABLED
  EXPECT_EQ(serial_delta.counter("test/serial_merge"), 512u);
#endif
}

TEST(ObsMetrics, GaugesKeepLastValueAndHistogramsTrackExtrema) {
  obs::reset_all();
  const obs::ScopedRecording rec(true);
  CSRL_GAUGE("test/gauge", 3.0);
  CSRL_GAUGE("test/gauge", 7.0);
  CSRL_HIST("test/hist", 2.0);
  CSRL_HIST("test/hist", 9.0);
  CSRL_HIST("test/hist", 4.0);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
#ifdef CSRL_OBS_DISABLED
  EXPECT_EQ(snap.gauge("test/gauge"), 0.0);
#else
  EXPECT_EQ(snap.gauge("test/gauge"), 7.0);
  bool found = false;
  for (const auto& [name, stats] : snap.histograms) {
    if (name != "test/hist") continue;
    found = true;
    EXPECT_EQ(stats.count, 3u);
    EXPECT_EQ(stats.sum, 15.0);
    EXPECT_EQ(stats.min, 2.0);
    EXPECT_EQ(stats.max, 9.0);
  }
  EXPECT_TRUE(found);
#endif
}

TEST(ObsSpans, NestingAndExportOrdering) {
  obs::reset_all();
  const obs::ScopedRecording rec(true);
  {
    CSRL_SPAN("outer");
    { CSRL_SPAN("inner"); }
    { CSRL_SPAN("inner"); }
  }

  const std::vector<obs::SpanEvent> events = obs::drain_spans();
#ifdef CSRL_OBS_DISABLED
  EXPECT_TRUE(events.empty());
#else
  ASSERT_EQ(events.size(), 3u);
  // Export order is (start, thread, path): the outer span starts first,
  // the two inner spans follow in their execution order.
  EXPECT_EQ(events[0].path, "outer");
  EXPECT_EQ(events[1].path, "outer/inner");
  EXPECT_EQ(events[2].path, "outer/inner");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  // Containment: the outer interval covers both inner intervals.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].start_ns + events[0].duration_ns,
            events[2].start_ns + events[2].duration_ns);

  const std::vector<obs::SpanAggregate> flat = obs::aggregate_spans(events);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].path, "outer");
  EXPECT_EQ(flat[0].count, 1u);
  EXPECT_EQ(flat[1].path, "outer/inner");
  EXPECT_EQ(flat[1].count, 2u);
#endif

  // A drained registry stays drained.
  EXPECT_TRUE(obs::drain_spans().empty());
}

TEST(ObsSpans, PathStackTracksNestingEvenWithoutRecording) {
  const obs::ScopedRecording rec(false);
#ifdef CSRL_OBS_DISABLED
  CSRL_SPAN("a");
  EXPECT_EQ(obs::current_span_path(), "");
#else
  EXPECT_EQ(obs::current_span_path(), "");
  {
    CSRL_SPAN("a");
    {
      CSRL_SPAN("b");
      EXPECT_EQ(obs::current_span_path(), "a/b");
    }
    EXPECT_EQ(obs::current_span_path(), "a");
  }
  EXPECT_EQ(obs::current_span_path(), "");
  // Nothing was recorded: the stack is maintained, the buffers are not.
  EXPECT_TRUE(obs::drain_spans().empty());
#endif
}

TEST(ObsSpans, ContractViolationCarriesSpanPath) {
#ifdef CSRL_CONTRACTS_DISABLED
  GTEST_SKIP() << "contracts compiled out";
#else
  const ScopedValidation basic(ValidationLevel::kBasic);
  try {
    CSRL_SPAN("test/contract_phase");
    CSRL_CONTRACT(false, "deliberate failure");
    FAIL() << "contract did not fire";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
#ifdef CSRL_OBS_DISABLED
    EXPECT_EQ(what.find("(span: "), std::string::npos);
#else
    EXPECT_NE(what.find("(span: test/contract_phase)"), std::string::npos)
        << what;
#endif
  }
#endif
}

TEST(ObsJson, WriterEmitsExactStableDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("count").value(std::uint64_t{3});
  w.key("name").value("a\"b");
  w.key("items").begin_array();
  w.value(1.5);
  w.value(true);
  w.end_array();
  w.key("nested").begin_object();
  w.key("x").value(std::int64_t{-2});
  w.end_object();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\"count\": 3,\"name\": \"a\\\"b\",\"items\": [1.5,true],"
            "\"nested\": {\"x\": -2}}");
}

TEST(ObsJson, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(std::move(w).str(), "[null,null]");
}

TEST(ObsJson, EscapesControlCharacters) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ObsJson, ChromeTraceHasCompleteEvents) {
  obs::reset_all();
  {
    const obs::ScopedRecording rec(true);
    CSRL_SPAN("trace/unit");
  }
  const std::string json = obs::chrome_trace_json(obs::drain_spans());
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
#ifndef CSRL_OBS_DISABLED
  EXPECT_NE(json.find("\"name\": \"trace/unit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"csrl\""), std::string::npos);
#endif
}

TEST(ObsReport, CheckerCheckAttachesRunReport) {
  obs::reset_all();
  const Mrm m = model();
  CheckOptions options;
  options.report = true;
  options.num_threads = 1;
  const Checker checker(m, options);

  // A P3 formula (time AND reward bounded) so the Sericola engine runs.
  // After the Theorem 1 reduction the goal state becomes a reward-0
  // success state, leaving max reward 2; r = 3 < 2 * t = 4 keeps the run
  // out of the trivial cases so the engine itself must sweep.
  const CheckResult result =
      checker.check(*parse_formula("P=? [ true U[0,2]{0,3} goal ]"));
  EXPECT_GE(result.value, 0.0);
  EXPECT_LE(result.value, 1.0);
  ASSERT_TRUE(result.report.has_value());
  const obs::RunReport& report = result.report.value();
  EXPECT_EQ(report.engine, "sericola");
  EXPECT_EQ(report.states, 3u);
  EXPECT_EQ(report.transitions, 3u);
  EXPECT_EQ(report.truncation_error, 1e-9);
#ifndef CSRL_OBS_DISABLED
  // The acceptance bar: a P3 run must explain itself — nonzero Fox-Glynn
  // window and SpMV work, and the span aggregate names the pipeline.
  EXPECT_GT(report.fox_glynn_right, 0u);
  EXPECT_GT(report.spmv_count, 0u);
  EXPECT_FALSE(report.spans.empty());
  bool saw_check = false;
  bool saw_p3 = false;
  for (const obs::SpanAggregate& span : report.spans) {
    if (span.path == "core/check") saw_check = true;
    if (span.path.find("p3/sericola") != std::string::npos) saw_p3 = true;
  }
  EXPECT_TRUE(saw_check);
  EXPECT_TRUE(saw_p3);

  // Cost model: the totals are the exact sums of the per-kernel
  // counters the run emitted — deterministic, so they must agree with
  // the metric delta to the bit.
  EXPECT_GT(report.cost_model.spmv_flops, 0u);
  EXPECT_GT(report.cost_model.spmv_bytes, report.cost_model.spmv_flops);
  EXPECT_EQ(report.cost_model.spmv_flops,
            report.metrics.counter("cost/spmv/flops"));
  EXPECT_EQ(report.cost_model.total_flops(),
            report.cost_model.spmv_flops + report.cost_model.spmm_flops +
                report.cost_model.epilogue_flops +
                report.cost_model.solver_flops);
  EXPECT_EQ(report.cost_model.total_bytes(),
            report.cost_model.spmv_bytes + report.cost_model.spmm_bytes +
                report.cost_model.epilogue_bytes +
                report.cost_model.solver_bytes);
  // Every SpMV charges 2 flops per touched stored entry and touches at
  // most the full matrix, so the call counter bounds the flop total from
  // above (2 * nnz per call) and every charge is a whole number of
  // entry-pairs.
  EXPECT_LE(report.cost_model.spmv_flops, 2u * 3u * report.spmv_count);
  EXPECT_EQ(report.cost_model.spmv_flops % 2u, 0u);

  // Latency: one check() call lands one sample in latency/check, so
  // every quantile equals that sample exactly (single-sample histogram:
  // the bucket edge clamps to the recorded max).
  EXPECT_EQ(report.latency_count, 1u);
  EXPECT_GT(report.latency_p50, 0.0);
  EXPECT_EQ(report.latency_p50, report.latency_p90);
  EXPECT_EQ(report.latency_p50, report.latency_p99);
  EXPECT_EQ(report.latency_p50, report.latency_p999);
  EXPECT_EQ(report.latency_p50,
            report.metrics.histogram("latency/check").max);
  EXPECT_EQ(report.spans_dropped, 0u);
#endif

  const std::string json = report.to_json();
  EXPECT_EQ(json.find("{\"schema\": \"csrl-run-report-v1\""), 0u);
  EXPECT_NE(json.find("\"engine\": \"sericola\""), std::string::npos);
  EXPECT_NE(json.find("\"fox_glynn\": {"), std::string::npos);
  EXPECT_NE(json.find("\"cost_model\": {"), std::string::npos);
  EXPECT_NE(json.find("\"latency\": {"), std::string::npos);
  EXPECT_NE(json.find("\"spans\": ["), std::string::npos);
}

TEST(ObsReport, SatCacheTrafficSurfacesInReport) {
  obs::reset_all();
  const Mrm m = model();
  CheckOptions options;
  options.report = true;
  options.num_threads = 1;
  const Checker checker(m, options);

  // Compound operands (bare atoms skip the cache): the first check
  // misses and populates, the second hits on the identical skeleton.
  const FormulaPtr first =
      parse_formula("P=? [ (goal | !goal) U[0,1]{0,2} goal ]");
  const FormulaPtr second =
      parse_formula("P=? [ (goal | !goal) U[0,2]{0,3} goal ]");
  (void)checker.check(*first);
  const CheckResult result = checker.check(*second);
  ASSERT_TRUE(result.report.has_value());
  const obs::RunReport& report = result.report.value();
#ifndef CSRL_OBS_DISABLED
  // The fixed sharing gap: the aggregated core/sat_cache counters (not
  // per-instance SatCache::stats) feed the report fields, so traffic is
  // visible regardless of which checker owned the probing cache.
  EXPECT_GT(report.sat_cache_hits, 0u);
  EXPECT_EQ(report.sat_cache_hits,
            report.metrics.counter("core/sat_cache/hits"));
  EXPECT_EQ(report.sat_cache_misses,
            report.metrics.counter("core/sat_cache/misses"));
#endif
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"sat_cache\": {"), std::string::npos);
  EXPECT_NE(json.find("\"hits\": "), std::string::npos);
  EXPECT_NE(json.find("\"misses\": "), std::string::npos);
}

TEST(ObsReport, NoReportWhenNotRequested) {
  const Mrm m = model();
  const Checker checker(m);
  const CheckResult result =
      checker.check(*parse_formula("P=? [ true U goal ]"));
  EXPECT_FALSE(result.report.has_value());
}

TEST(ObsHistogram, BucketGeometryPins) {
  // Bucket 0 absorbs zero, negatives, NaN and sub-2^-40 underflow.
  EXPECT_EQ(obs::histogram_bucket_index(0.0), 0u);
  EXPECT_EQ(obs::histogram_bucket_index(-1.0), 0u);
  EXPECT_EQ(obs::histogram_bucket_index(
                std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(obs::histogram_bucket_index(std::ldexp(1.0, -41)), 0u);
  // The first real bucket starts exactly at 2^-40.
  EXPECT_EQ(obs::histogram_bucket_index(std::ldexp(1.0, -40)), 1u);
  EXPECT_EQ(obs::histogram_bucket_upper(0), std::ldexp(1.0, -40));
  // 1.0 opens octave 0: index 1 + 40 * 4, upper edge exactly 1.25.
  const std::size_t one = obs::histogram_bucket_index(1.0);
  EXPECT_EQ(one, 1u + 40u * 4u);
  EXPECT_EQ(obs::histogram_bucket_upper(one), 1.25);
  // 1.3 lands in the second linear sub-bucket [1.25, 1.5).
  EXPECT_EQ(obs::histogram_bucket_index(1.3), one + 1);
  EXPECT_EQ(obs::histogram_bucket_upper(one + 1), 1.5);
  // 3.0 sits in octave 1, sub-bucket 2: upper edge 1.75 * 2 = 3.5.
  const std::size_t three = obs::histogram_bucket_index(3.0);
  EXPECT_EQ(three, one + 4u + 2u);
  EXPECT_EQ(obs::histogram_bucket_upper(three), 3.5);
  // At and above 2^24 everything collapses into the overflow bucket.
  EXPECT_EQ(obs::histogram_bucket_index(std::ldexp(1.0, 24)),
            obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::histogram_bucket_index(1e300), obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::histogram_bucket_upper(obs::kHistogramBuckets - 1),
            std::numeric_limits<double>::infinity());
}

TEST(ObsHistogram, ExactQuantilePins) {
  obs::reset_all();
  const obs::ScopedRecording rec(true);
  for (int i = 0; i < 10; ++i) CSRL_HIST("test/quantile_pin", 1.0);
  CSRL_HIST("test/quantile_pin", 3.0);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricsSnapshot::HistogramStats stats =
      snap.histogram("test/quantile_pin");
#ifdef CSRL_OBS_DISABLED
  EXPECT_EQ(stats.count, 0u);
#else
  ASSERT_EQ(stats.count, 11u);
  // Ranks 1..10 are the 1.0 samples: their bucket's upper edge is 1.25.
  EXPECT_EQ(stats.quantile(0.50), 1.25);
  EXPECT_EQ(stats.quantile(0.90), 1.25);
  // Rank 11 is the 3.0 sample: its bucket's upper edge is 3.5, clamped
  // to the recorded max.
  EXPECT_EQ(stats.quantile(0.999), 3.0);
  EXPECT_EQ(stats.quantile(1.0), 3.0);
#endif
  // An empty histogram reports 0 for every quantile.
  EXPECT_EQ(obs::MetricsSnapshot::HistogramStats{}.quantile(0.5), 0.0);
}

TEST(ObsHistogram, QuantilesMatchSortedSampleOracle) {
  obs::reset_all();
  const obs::ScopedRecording rec(true);

  // Deterministic LCG samples spanning several octaves.
  std::vector<double> samples;
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double unit =
        static_cast<double>(state >> 11) / 9007199254740992.0;  // [0, 1)
    samples.push_back(1e-6 * (1.0 + 1e4 * unit));
    CSRL_HIST("test/quantile_oracle", samples.back());
  }
  std::sort(samples.begin(), samples.end());

  const obs::MetricsSnapshot::HistogramStats stats =
      obs::snapshot_metrics().histogram("test/quantile_oracle");
#ifdef CSRL_OBS_DISABLED
  EXPECT_EQ(stats.count, 0u);
#else
  ASSERT_EQ(stats.count, samples.size());
  // Bucketing is monotone, so the bucket holding the nearest-rank
  // order statistic is exactly the bucket quantile() stops in: the
  // reported value is that bucket's upper edge, clamped to the max.
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double oracle = samples[rank - 1];
    const double expected =
        std::min(obs::histogram_bucket_upper(
                     obs::histogram_bucket_index(oracle)),
                 samples.back());
    EXPECT_EQ(stats.quantile(q), expected) << "q=" << q;
    // And the band is tight: within one sub-bucket of the oracle.
    EXPECT_GE(stats.quantile(q), oracle);
    EXPECT_LE(stats.quantile(q), oracle * 1.25);
  }
#endif
}

TEST(ObsHistogram, ShardMergeIsBitwiseDeterministic) {
  // The same values recorded from pool threads and serially must merge
  // to identical bucket vectors, hence identical quantiles — the
  // property the perf ledger's cross-run comparability rests on.
  obs::reset_all();
  const obs::ScopedRecording rec(true);
  const ThreadPool pool(4);

  const auto run_once = [&pool] {
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    // One sample per element (not per chunk), so the recorded multiset
    // is independent of how the range is split across threads.
    pool.parallel_for(0, 256, 1,
                      []([[maybe_unused]] std::size_t lo,
                         [[maybe_unused]] std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i)
                          CSRL_HIST("test/merge_hist",
                                    1e-6 * static_cast<double>(i + 1));
                      });
    return obs::metrics_delta(before, obs::snapshot_metrics())
        .histogram("test/merge_hist");
  };

  const obs::MetricsSnapshot::HistogramStats parallel_stats = run_once();
  ForceSerialGuard serial;
  const obs::MetricsSnapshot::HistogramStats serial_stats = run_once();

  EXPECT_EQ(parallel_stats.count, serial_stats.count);
  EXPECT_EQ(parallel_stats.buckets, serial_stats.buckets);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(parallel_stats.quantile(q), serial_stats.quantile(q));
  }
#ifndef CSRL_OBS_DISABLED
  EXPECT_EQ(serial_stats.count, 256u);
#endif
}

TEST(ObsCostModel, SpmvAndSpmmChargesAreExact) {
  obs::reset_all();
  const obs::ScopedRecording rec(true);

  CsrBuilder b(3, 3);
  b.add(0, 1, 2.0);
  b.add(0, 2, 1.0);
  b.add(1, 0, 1.0);
  const CsrMatrix a = b.build();
  ASSERT_EQ(a.nnz(), 3u);

  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y(3, 0.0);
  a.multiply(x, y);

  constexpr std::size_t kWidth = 4;
  a.charge_lane_product(kWidth);

  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, obs::snapshot_metrics());
#ifdef CSRL_OBS_DISABLED
  EXPECT_EQ(delta.counter("cost/spmv/flops"), 0u);
#else
  // One full SpMV on nnz = 3, rows = 3: 2 flops per stored entry; 24
  // bytes per entry (16-byte CsrEntry + two 8-byte vector slots) plus
  // 16 bytes per row of row-pointer and result traffic.
  EXPECT_EQ(delta.counter("cost/spmv/flops"), 2u * 3u);
  EXPECT_EQ(delta.counter("cost/spmv/bytes"), 24u * 3u + 16u * 3u);
  // One lane product of width 4: the entry stream is paid once for all
  // lanes, the vector traffic scales with the width (not the stride).
  EXPECT_EQ(delta.counter("cost/spmm/flops"), 2u * 3u * kWidth);
  EXPECT_EQ(delta.counter("cost/spmm/bytes"),
            16u * 3u + 8u * 3u + 8u * kWidth * (3u + 3u));
#endif
}

TEST(ObsSpans, DroppedEventsAreCountedAndSurfaced) {
#ifdef CSRL_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out";
#else
  obs::reset_all();
  obs::set_span_event_cap_for_testing(4);
  obs::ReportScope scope;
  for (int i = 0; i < 16; ++i) {
    CSRL_SPAN("test/drop_me");
  }
  EXPECT_GT(obs::dropped_span_events(), 0u);
  const obs::RunReport report = scope.finish("test", 1, 1, 0.0);
  EXPECT_EQ(report.spans_dropped, 12u);
  EXPECT_NE(report.to_json().find("\"spans_dropped\": 12"),
            std::string::npos);
  obs::set_span_event_cap_for_testing(0);
  obs::reset_all();
#endif
}

TEST(ObsDormant, HotPathDoesNotAllocate) {
  // Dormant gear: sites compiled in (unless OBS=OFF), recording off.
  const obs::ScopedRecording rec(false);

  // Warm-up pays the one-time costs the steady state never sees again
  // (thread-local span-stack capacity).
  for (std::size_t i = 0; i < 8; ++i) touch_all_sites(i);

  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  for (std::size_t i = 0; i < 1000; ++i) touch_all_sites(i);
  g_count_allocations.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace csrl
