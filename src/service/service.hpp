// Resident checker service: concurrent multi-client query serving with
// cross-client lattice coalescing (DESIGN.md section 3i).
//
// Everything below core/ is a one-shot library call; this layer is the
// long-lived process around it.  A CheckerService owns
//
//   * a ModelRegistry of immutable shared per-model artifacts keyed by
//     the bit-exact Mrm::fingerprint (service/registry.hpp),
//   * one process-wide SatCache shared by every checker the service
//     builds, so Sat sets memoised for one client serve all of them,
//   * a bounded admission queue with per-model round-robin fairness and
//     explicit backpressure verdicts (a full queue answers kRejected
//     immediately; it never blocks the client or silently drops work),
//   * worker threads that drain the queue and — the point of the layer —
//     COALESCE in-flight P3 point queries agreeing on (model, formula
//     skeleton) into one Checker::until_grid lattice pass whose cells
//     are scattered back to the waiting clients.  PR 4 measured a 10x
//     SpMV reduction when a lattice is batched by hand; the service
//     makes that reduction happen automatically across unrelated
//     clients, and PR 4's bitwise contract (a point query is its own
//     1 x 1 grid through the same code path) guarantees every client
//     receives exactly the bits a private Checker::check would have
//     produced.
//
// Threading model: the service's workers are dedicated coordination
// threads — they block on the queue's condition variable, which pool
// lanes must never do.  All numerical work they trigger runs on the
// PR 1 shared ThreadPool through the ordinary kernels, so compute
// parallelism and its bit-determinism guarantees are unchanged.
//
// Shutdown: shutdown(/*drain=*/true) (and the destructor) stops
// admission, lets queued and in-flight queries finish, then joins the
// workers; shutdown(false) instead fails queued queries with kShutdown
// verdicts (in-flight batches still complete — a lattice pass is never
// abandoned halfway).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/batch.hpp"
#include "core/options.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "service/plan.hpp"
#include "service/registry.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace csrl {
namespace service {

/// Terminal verdict of one submitted query.
enum class QueryStatus {
  kOk,            // evaluated; value/truth are valid
  kParseError,    // the query text does not parse (error has the details)
  kUnknownModel,  // the model id is not registered
  kRejected,      // admission backpressure: the bounded queue was full
  kShutdown,      // cancelled by a non-draining shutdown
  kFailed,        // evaluation threw (error has the details)
};

/// Stable lower-case label ("ok", "parse_error", ...).
std::string to_string(QueryStatus status);

/// What a client gets back for one query.
struct QueryResult {
  QueryStatus status = QueryStatus::kFailed;

  /// For P=?/S=?/R=? roots: the quantitative value at the initial state.
  /// For coalesced bounded-P lattice queries: the underlying probability
  /// (more informative than the 0/1 indicator; `truth` carries the
  /// verdict).  For other boolean roots: the 0/1 indicator.
  double value = 0.0;

  /// Truth verdict at the initial state; for value queries, value != 0.
  bool truth = false;

  /// Parse or evaluation error text (kParseError / kFailed).
  std::string error;

  /// Did this query share a lattice pass with other clients?
  bool coalesced = false;

  /// Number of client queries answered by the batch that served this one
  /// (1 for a direct evaluation).
  std::size_t batch_clients = 0;

  /// Execution-order stamp of the serving batch (1, 2, ...): what the
  /// admission-policy tests observe fairness through.
  std::uint64_t serve_seq = 0;

  /// Submit-to-completion wall time, also recorded into the
  /// "service/latency/query" histogram (RunReport p50/p99).
  double latency_seconds = 0.0;
};

/// Service configuration.
struct ServiceOptions {
  /// Worker threads draining the queue.  0 means no workers: queries
  /// queue up until the caller runs drain_now() — the deterministic mode
  /// the admission tests and the offline replay bench use.
  std::size_t workers = 2;

  /// Admission bound: submissions beyond this many queued queries get an
  /// immediate kRejected backpressure verdict.
  std::size_t max_pending = 4096;

  /// Cap on clients coalesced into one lattice pass; 0 = unbounded.
  std::size_t max_batch = 0;

  /// Base CheckOptions for every checker the service builds (engine
  /// choice, epsilons, transient options, ...).  lump is honoured at
  /// model registration (the quotient is an artifact property, built
  /// once and shared by every session).
  CheckOptions check{};
};

/// Monotonic counters since construction (plain atomics, so they work in
/// every obs gear).
struct ServiceStats {
  std::uint64_t submitted = 0;      // every submit() call
  std::uint64_t admitted = 0;       // entered the queue
  std::uint64_t completed = 0;      // terminal verdict delivered (any status)
  std::uint64_t ok = 0;             // status kOk
  std::uint64_t parse_errors = 0;   // rejected at the front-end
  std::uint64_t unknown_model = 0;  // rejected at the front-end
  std::uint64_t rejected = 0;       // admission backpressure
  std::uint64_t cancelled = 0;      // kShutdown verdicts
  std::uint64_t failed = 0;         // evaluation threw
  std::uint64_t batches = 0;        // serving passes (direct or lattice)
  std::uint64_t lattice_passes = 0;       // batches that ran until_grid
  std::uint64_t lattice_cells = 0;        // grid cells those passes computed
  std::uint64_t coalesced_queries = 0;    // queries that shared a pass (>1)
};

class CheckerService {
 public:
  explicit CheckerService(ServiceOptions options = {});

  /// Drains and joins (shutdown(true)).
  ~CheckerService();

  CheckerService(const CheckerService&) = delete;
  CheckerService& operator=(const CheckerService&) = delete;

  /// Register a model; returns its id (the fingerprint — idempotent on
  /// bit-identical models).  Callable any time, including while serving.
  ModelId register_model(Mrm model);
  ModelId register_model(std::shared_ptr<const Mrm> model);

  bool has_model(ModelId id) const;
  std::size_t num_models() const;

  /// Submit a textual CSRL query against a registered model.  Returns
  /// immediately; the future resolves with the terminal verdict.  Parse
  /// errors, unknown models, backpressure and shutdown resolve the
  /// future before submit() returns — nothing malformed or inadmissible
  /// ever occupies queue space or reaches a worker.
  std::future<QueryResult> submit(ModelId model, std::string_view query);

  /// submit() + wait.  With workers == 0 the queued query is drained
  /// inline, so the call still completes.
  QueryResult query(ModelId model, std::string_view query);

  /// Run queued batches on the calling thread until the queue is empty.
  /// Safe alongside workers; the deterministic serving mode when
  /// workers == 0 (maximal coalescing: everything queued at drain time
  /// with the same key shares one pass).
  void drain_now();

  /// Stop admission, then either let queued work finish (drain) or fail
  /// it with kShutdown verdicts; in-flight batches always complete.
  /// Joins the workers.  Idempotent.
  void shutdown(bool drain = true);

  ServiceStats stats() const;

  /// Aggregated run report of the service's lifetime so far: model
  /// totals, the full metric delta since construction (SpMV counts, the
  /// cross-session core/sat_cache/* counters), and p50/p99 lifted from
  /// the "service/latency/query" histogram.  Metric-derived fields need
  /// recording on (CSRL_TRACE / ScopedRecording / BenchObs), like every
  /// obs consumer; ServiceStats covers the always-on counters.
  obs::RunReport report() const;

  /// The process-wide Sat-set cache every service checker shares.
  const std::shared_ptr<SatCache>& sat_cache() const { return sat_cache_; }

  const ServiceOptions& options() const { return options_; }

 private:
  /// One admitted query waiting in (or taken from) the queue.
  struct Pending {
    QueryPlan plan;
    std::shared_ptr<const ModelArtifacts> artifacts;
    std::promise<QueryResult> promise;
    WallTimer since_submit;
    /// Guards against double-fulfilling the promise when a batch fails
    /// after some of its members were already answered.
    bool delivered = false;
  };

  void worker_loop();

  /// Pop the next batch under per-model round-robin fairness: the head
  /// of the least-recently-served non-empty model queue, plus — when the
  /// head is a lattice plan — every queued query of that model with the
  /// same skeleton (up to max_batch).  Empty only when nothing pends.
  std::vector<Pending> take_next_batch_locked() CSRL_REQUIRES(mutex_);

  /// Evaluate one batch and deliver its verdicts.  Runs without locks.
  void execute_batch(std::vector<Pending>& batch);

  void deliver(Pending& pending, QueryResult result);

  ServiceOptions options_;
  ModelRegistry registry_;
  std::shared_ptr<SatCache> sat_cache_;
  obs::MetricsSnapshot metrics_before_;
  WallTimer uptime_;

  std::atomic<std::uint64_t> serve_seq_{0};

  // ServiceStats counters.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> unknown_model_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> lattice_passes_{0};
  std::atomic<std::uint64_t> lattice_cells_{0};
  std::atomic<std::uint64_t> coalesced_queries_{0};

  mutable Mutex mutex_;
  CondVar work_cv_;  // queue became non-empty, or stopping
  CondVar idle_cv_;  // queue drained and no batch in flight
  bool accepting_ CSRL_GUARDED_BY(mutex_) = true;
  bool stopping_ CSRL_GUARDED_BY(mutex_) = false;
  std::size_t total_pending_ CSRL_GUARDED_BY(mutex_) = 0;
  std::size_t active_batches_ CSRL_GUARDED_BY(mutex_) = 0;
  /// Fairness cursor into queue_order_: where the next scan starts.
  std::size_t next_model_ CSRL_GUARDED_BY(mutex_) = 0;
  /// Models that ever had queued work, in first-enqueue order — the
  /// deterministic ring the round-robin walks (never iterate queues_).
  std::vector<ModelId> queue_order_ CSRL_GUARDED_BY(mutex_);
  std::unordered_map<ModelId, std::deque<Pending>> queues_
      CSRL_GUARDED_BY(mutex_);

  /// Joined by shutdown(); no synchronisation needed besides it.
  std::vector<std::thread> workers_;
};

}  // namespace service
}  // namespace csrl
