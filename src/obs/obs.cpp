#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>

#include "obs/json_writer.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace csrl {
namespace obs {

namespace {

/// Hard cap per metric kind.  Instrumentation sites are static program
/// locations, so the population is small and known; hitting the cap is a
/// programming error, reported loudly at intern time (never on the hot
/// path, which only runs with a valid id in hand).
constexpr std::size_t kMaxMetrics = 128;

/// Thread-local accumulation shard.  Exactly one thread writes a shard
/// (its owner); snapshots read concurrently, so slots are relaxed
/// atomics — single-writer means no lost updates, relaxed means no
/// synchronisation cost.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxMetrics> counters{};
  struct Hist {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
    // Log-spaced per-bucket counts (see the geometry block in obs.hpp);
    // same single-writer/relaxed-reader discipline as the scalars.
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Hist, kMaxMetrics> histograms{};
};

/// Cap on buffered span events per thread, so leaving recording on for a
/// long run (e.g. a whole bench binary) bounds memory instead of growing
/// it without limit.  Events beyond the cap are counted, not stored; the
/// aggregate view loses their timing, never their existence.
constexpr std::size_t kMaxSpanEventsPerThread = std::size_t{1} << 19;

/// The live cap (set_span_event_cap_for_testing shrinks it so tests can
/// force drops cheaply).  Relaxed: the exact point where drops start is
/// not synchronisation-sensitive.
std::atomic<std::size_t>& span_event_cap() {
  static std::atomic<std::size_t> cap{kMaxSpanEventsPerThread};
  return cap;
}

/// Per-thread span buffer.  The owning thread appends under the mutex;
/// drain/peek lock the same mutex, so buffers are safe against
/// concurrent export.  The mutex is only ever touched while recording is
/// on — the dormant path never reaches it.
struct SpanBuffer {
  explicit SpanBuffer(std::uint32_t id) : thread_id(id) {}
  Mutex mutex;
  std::vector<SpanEvent> events CSRL_GUARDED_BY(mutex);
  std::uint64_t dropped CSRL_GUARDED_BY(mutex) = 0;
  const std::uint32_t thread_id;  // immutable after construction
};

struct Registry {
  Mutex mutex;
  std::vector<std::string> counter_names CSRL_GUARDED_BY(mutex);
  std::vector<std::string> gauge_names CSRL_GUARDED_BY(mutex);
  std::vector<std::string> histogram_names CSRL_GUARDED_BY(mutex);
  std::vector<std::unique_ptr<Shard>> shards CSRL_GUARDED_BY(mutex);
  std::vector<std::unique_ptr<SpanBuffer>> buffers CSRL_GUARDED_BY(mutex);
  // Gauges are process-global relaxed atomics, written rarely from the
  // coordinating thread: no lock on the write or the snapshot read.
  std::array<std::atomic<double>, kMaxMetrics> gauges{};

  // Intentionally immortal: the process-wide ThreadPool is a
  // namespace-scope object whose workers keep recording until it is torn
  // down, and static destruction order would otherwise destroy this
  // registry first (a use-after-free at exit under CSRL_TRACE=1).  Leaking
  // it lets every late recorder find live shards.
  static Registry& instance() {
    // lint:allow raw-new-delete (immortal singleton, see above)
    static Registry& r = *new Registry;
    return r;
  }
};

enum class MetricKind { kCounter, kGauge, kHistogram };

std::size_t intern(MetricKind kind, const char* name) {
  Registry& reg = Registry::instance();
  MutexLock lock(reg.mutex);
  std::vector<std::string>& names = kind == MetricKind::kCounter
                                        ? reg.counter_names
                                        : kind == MetricKind::kGauge
                                              ? reg.gauge_names
                                              : reg.histogram_names;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return i;
  if (names.size() >= kMaxMetrics) {
    // Plain std::runtime_error, not util/error.hpp's Error: obs is the
    // bottom layer of the include DAG (below util) and must stay free of
    // upward dependencies.  Exhaustion is a programming error — sites
    // are static program locations — so the generic type is fine.
    const char* label = kind == MetricKind::kCounter
                            ? "counter"
                            : kind == MetricKind::kGauge ? "gauge"
                                                         : "histogram";
    throw std::runtime_error(std::string("obs: ") + label +
                             " id space exhausted at \"" + name + "\" (" +
                             std::to_string(kMaxMetrics) + " slots)");
  }
  names.emplace_back(name);
  return names.size() - 1;
}

// Shards and buffers are owned by the registry and never freed, so a
// pool worker's accumulated values survive its thread.  The thread-local
// pointer is just a cache of the owned object.
thread_local Shard* tls_shard = nullptr;
thread_local SpanBuffer* tls_buffer = nullptr;
thread_local std::vector<const char*> tls_span_stack;

Shard& my_shard() {
  if (tls_shard == nullptr) {
    Registry& reg = Registry::instance();
    MutexLock lock(reg.mutex);
    reg.shards.push_back(std::make_unique<Shard>());
    tls_shard = reg.shards.back().get();
  }
  return *tls_shard;
}

SpanBuffer& my_buffer() {
  if (tls_buffer == nullptr) {
    Registry& reg = Registry::instance();
    MutexLock lock(reg.mutex);
    reg.buffers.push_back(std::make_unique<SpanBuffer>(
        static_cast<std::uint32_t>(reg.buffers.size())));
    tls_buffer = reg.buffers.back().get();
  }
  return *tls_buffer;
}

struct EnvConfig {
  bool trace = false;
  std::string out_stem;  // empty = CSRL_OBS_OUT unset
};

const EnvConfig& env_config() {
  static const EnvConfig cfg = [] {
    EnvConfig c;
    if (const char* t = std::getenv("CSRL_TRACE")) {
      const std::string v(t);
      c.trace = !v.empty() && v != "0" && v != "off" && v != "false";
    }
    if (const char* o = std::getenv("CSRL_OBS_OUT")) c.out_stem = o;
    return c;
  }();
  return cfg;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return written == text.size();
}

/// Process-exit flush for environment-driven runs (CSRL_TRACE=1): the
/// whole recorded trace and a final metrics snapshot land next to the
/// binary without any code in the host program.
void flush_process_outputs() {
  const std::string stem = output_stem();
  write_chrome_trace(stem + ".trace.json", drain_spans());
  JsonWriter w;
  w.begin_object();
  emit_metrics(w, snapshot_metrics());
  w.end_object();
  write_text_file(stem + ".metrics.json", std::move(w).str());
}

std::atomic<bool>& recording_flag() {
  static std::atomic<bool> flag{[] {
    const bool on = env_config().trace;
    if (on) {
      // The flush handler walks the registry and reads the steady-clock
      // epoch.  Both are function-local statics that would normally be
      // constructed *after* this point (on first event) and therefore be
      // destroyed before an atexit handler registered here runs.
      // Touching them first puts their destructors after the flush in
      // the exit sequence (static destructors and atexit handlers share
      // one LIFO).
      Registry::instance();
      now_ns();
      std::atexit(flush_process_outputs);
    }
    return on;
  }()};
  return flag;
}

/// Copy of the given events, for the non-destructive peek that report
/// collection uses (drain would starve the process-exit trace flush).
std::vector<SpanEvent> collect_spans(bool consume) {
  Registry& reg = Registry::instance();
  MutexLock lock(reg.mutex);
  std::vector<SpanEvent> all;
  for (const std::unique_ptr<SpanBuffer>& buffer : reg.buffers) {
    MutexLock buffer_lock(buffer->mutex);
    if (consume) {
      std::move(buffer->events.begin(), buffer->events.end(),
                std::back_inserter(all));
      buffer->events.clear();
      buffer->dropped = 0;
    } else {
      all.insert(all.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  // Buffer registration order is thread-arrival order, which can vary
  // run to run; a (start, thread, path) sort pins the export order.
  std::sort(all.begin(), all.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.thread != b.thread) return a.thread < b.thread;
              return a.path < b.path;
            });
  return all;
}

}  // namespace

bool recording_enabled() {
  return recording_flag().load(std::memory_order_relaxed);
}

void set_recording(bool on) {
  recording_flag().store(on, std::memory_order_relaxed);
}

ScopedRecording::ScopedRecording(bool on) : previous_(recording_enabled()) {
  set_recording(on);
}

ScopedRecording::~ScopedRecording() { set_recording(previous_); }

std::string output_stem(const std::string& fallback) {
  const std::string& stem = env_config().out_stem;
  return stem.empty() ? fallback : stem;
}

std::size_t histogram_bucket_index(double value) {
  // The first comparison is false for zero, negatives, underflow and
  // NaN — all of which belong in the catch-all bucket 0.
  if (!(value >= std::ldexp(1.0, kHistogramMinExponent))) return 0;
  if (value >= std::ldexp(1.0, kHistogramMaxExponent))
    return kHistogramBuckets - 1;
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // value = m * 2^exp,
  const int octave = exp - 1;                       // m in [0.5, 1)
  // 2m - 1 is exact (Sterbenz: 1 <= 2m < 2) and the multiply by the
  // power-of-two sub-bucket count is exact, so the floor is the true
  // linear sub-bucket — no boundary jitter across platforms.
  const int sub = static_cast<int>((2.0 * mantissa - 1.0) *
                                   kHistogramSubBuckets);
  return 1 +
         static_cast<std::size_t>(octave - kHistogramMinExponent) *
             kHistogramSubBuckets +
         static_cast<std::size_t>(
             sub < kHistogramSubBuckets ? sub : kHistogramSubBuckets - 1);
}

double histogram_bucket_upper(std::size_t index) {
  if (index == 0) return std::ldexp(1.0, kHistogramMinExponent);
  if (index >= kHistogramBuckets - 1)
    return std::numeric_limits<double>::infinity();
  const std::size_t linear = index - 1;
  const int octave = kHistogramMinExponent +
                     static_cast<int>(linear / kHistogramSubBuckets);
  const int sub = static_cast<int>(linear % kHistogramSubBuckets);
  return std::ldexp(
      1.0 + static_cast<double>(sub + 1) / kHistogramSubBuckets, octave);
}

double MetricsSnapshot::HistogramStats::quantile(double q) const {
  if (count == 0) return 0.0;
  if (buckets.empty()) return max;  // no bucket data (legacy snapshot)
  const double scaled = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(scaled));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      const double upper = histogram_bucket_upper(i);
      return upper < max ? upper : max;
    }
  }
  return max;
}

std::size_t intern_counter(const char* name) {
  return intern(MetricKind::kCounter, name);
}

std::size_t intern_gauge(const char* name) {
  return intern(MetricKind::kGauge, name);
}

std::size_t intern_histogram(const char* name) {
  return intern(MetricKind::kHistogram, name);
}

void counter_add(std::size_t id, std::uint64_t delta) {
  my_shard().counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void gauge_set(std::size_t id, double value) {
  Registry::instance().gauges[id].store(value, std::memory_order_relaxed);
}

void histogram_record(std::size_t id, double value) {
  Shard::Hist& h = my_shard().histograms[id];
  // Single writer per shard: plain load/modify/store is race-free, and
  // ordering `count` last keeps min/max valid whenever a reader sees a
  // positive count.
  const std::uint64_t count = h.count.load(std::memory_order_relaxed);
  h.sum.store(h.sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  if (count == 0 || value < h.min.load(std::memory_order_relaxed))
    h.min.store(value, std::memory_order_relaxed);
  if (count == 0 || value > h.max.load(std::memory_order_relaxed))
    h.max.store(value, std::memory_order_relaxed);
  std::atomic<std::uint64_t>& bucket = h.buckets[histogram_bucket_index(value)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  h.count.store(count + 1, std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return 0.0;
}

MetricsSnapshot::HistogramStats MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& [n, v] : histograms)
    if (n == name) return v;
  return {};
}

MetricsSnapshot snapshot_metrics() {
  Registry& reg = Registry::instance();
  MutexLock lock(reg.mutex);
  MetricsSnapshot snap;

  std::vector<std::uint64_t> counter_totals(reg.counter_names.size(), 0);
  std::vector<MetricsSnapshot::HistogramStats> hist_totals(
      reg.histogram_names.size());
  for (const std::unique_ptr<Shard>& shard : reg.shards) {
    for (std::size_t i = 0; i < counter_totals.size(); ++i)
      counter_totals[i] +=
          shard->counters[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < hist_totals.size(); ++i) {
      const Shard::Hist& h = shard->histograms[i];
      const std::uint64_t count = h.count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      MetricsSnapshot::HistogramStats& t = hist_totals[i];
      const double lo = h.min.load(std::memory_order_relaxed);
      const double hi = h.max.load(std::memory_order_relaxed);
      if (t.count == 0 || lo < t.min) t.min = lo;
      if (t.count == 0 || hi > t.max) t.max = hi;
      t.count += count;
      t.sum += h.sum.load(std::memory_order_relaxed);
      if (t.buckets.empty()) t.buckets.assign(kHistogramBuckets, 0);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        t.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
    }
  }

  for (std::size_t i = 0; i < reg.counter_names.size(); ++i)
    snap.counters.emplace_back(reg.counter_names[i], counter_totals[i]);
  for (std::size_t i = 0; i < reg.gauge_names.size(); ++i)
    snap.gauges.emplace_back(reg.gauge_names[i],
                             reg.gauges[i].load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < reg.histogram_names.size(); ++i)
    snap.histograms.emplace_back(reg.histogram_names[i], hist_totals[i]);

  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const std::uint64_t diff = value - before.counter(name);
    if (diff != 0) delta.counters.emplace_back(name, diff);
  }
  // Gauges carry "current state", not accumulation: keep the after
  // values so a run whose gauge landed on the same value as the previous
  // run still reports it.
  delta.gauges = after.gauges;
  for (const auto& [name, stats] : after.histograms) {
    MetricsSnapshot::HistogramStats prior;
    for (const auto& [n, s] : before.histograms)
      if (n == name) prior = s;
    if (stats.count == prior.count) continue;
    // min/max cannot be un-merged; report the cumulative extrema with
    // the count/sum of this window — a conservative but honest summary.
    // Buckets, like counters, subtract exactly.
    MetricsSnapshot::HistogramStats d = stats;
    d.count = stats.count - prior.count;
    d.sum = stats.sum - prior.sum;
    if (!prior.buckets.empty())
      for (std::size_t b = 0;
           b < d.buckets.size() && b < prior.buckets.size(); ++b)
        d.buckets[b] -= prior.buckets[b];
    delta.histograms.emplace_back(name, d);
  }
  return delta;
}

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

SpanGuard::SpanGuard(const char* name) : start_ns_(-1) {
  tls_span_stack.push_back(name);
  if (recording_enabled()) start_ns_ = now_ns();
}

SpanGuard::~SpanGuard() {
  if (start_ns_ >= 0) {
    const std::int64_t end = now_ns();
    SpanEvent event;
    event.path = current_span_path();
    event.depth = static_cast<std::uint32_t>(tls_span_stack.size() - 1);
    event.start_ns = start_ns_;
    event.duration_ns = end - start_ns_;
    SpanBuffer& buffer = my_buffer();
    event.thread = buffer.thread_id;
    MutexLock lock(buffer.mutex);
    if (buffer.events.size() < span_event_cap().load(std::memory_order_relaxed))
      buffer.events.push_back(std::move(event));
    else
      ++buffer.dropped;
  }
  tls_span_stack.pop_back();
}

std::string current_span_path() {
  std::string path;
  for (const char* name : tls_span_stack) {
    if (!path.empty()) path += '/';
    path += name;
  }
  return path;
}

std::uint64_t dropped_span_events() {
  Registry& reg = Registry::instance();
  MutexLock lock(reg.mutex);
  std::uint64_t total = 0;
  for (const std::unique_ptr<SpanBuffer>& buffer : reg.buffers) {
    MutexLock buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

void set_span_event_cap_for_testing(std::size_t cap) {
  span_event_cap().store(cap == 0 ? kMaxSpanEventsPerThread : cap,
                         std::memory_order_relaxed);
}

std::vector<SpanEvent> drain_spans() { return collect_spans(/*consume=*/true); }

std::vector<SpanEvent> peek_spans() { return collect_spans(/*consume=*/false); }

std::vector<SpanAggregate> aggregate_spans(
    const std::vector<SpanEvent>& events) {
  std::vector<SpanAggregate> flat;
  for (const SpanEvent& event : events) {
    SpanAggregate* slot = nullptr;
    for (SpanAggregate& agg : flat)
      if (agg.path == event.path) slot = &agg;
    if (slot == nullptr) {
      flat.push_back({event.path, 0, 0.0});
      slot = &flat.back();
    }
    slot->count += 1;
    slot->total_ms += static_cast<double>(event.duration_ns) * 1e-6;
  }
  std::sort(flat.begin(), flat.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              return a.path < b.path;
            });
  return flat;
}

std::string chrome_trace_json(const std::vector<SpanEvent>& events) {
  JsonWriter w;
  w.begin_array();
  for (const SpanEvent& event : events) {
    w.begin_object();
    w.key("name").value(event.path);
    w.key("cat").value("csrl");
    w.key("ph").value("X");
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(static_cast<std::uint64_t>(event.thread));
    w.key("ts").value(static_cast<double>(event.start_ns) * 1e-3);
    w.key("dur").value(static_cast<double>(event.duration_ns) * 1e-3);
    w.end_object();
  }
  w.end_array();
  return std::move(w).str();
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanEvent>& events) {
  return write_text_file(path, chrome_trace_json(events));
}

void reset_all() {
  Registry& reg = Registry::instance();
  MutexLock lock(reg.mutex);
  for (const std::unique_ptr<Shard>& shard : reg.shards) {
    for (std::size_t i = 0; i < kMaxMetrics; ++i) {
      shard->counters[i].store(0, std::memory_order_relaxed);
      shard->histograms[i].count.store(0, std::memory_order_relaxed);
      shard->histograms[i].sum.store(0.0, std::memory_order_relaxed);
      shard->histograms[i].min.store(0.0, std::memory_order_relaxed);
      shard->histograms[i].max.store(0.0, std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        shard->histograms[i].buckets[b].store(0, std::memory_order_relaxed);
    }
  }
  for (std::size_t i = 0; i < kMaxMetrics; ++i)
    reg.gauges[i].store(0.0, std::memory_order_relaxed);
  for (const std::unique_ptr<SpanBuffer>& buffer : reg.buffers) {
    MutexLock buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

}  // namespace obs
}  // namespace csrl
