// The three workloads: p3_engines, fig1_surface and service_waves.
//
// Every time and reward bound comes from the seed through stratified
// draws (one draw jittered around the centre of each of m equal strata of
// a range), so the cost mix of a cycle barely moves from one seed to the
// next.  The guards below refuse to generate a request that would measure
// something other than what the workload is for; each names the failure
// it prevents.
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <stdexcept>
#include <utility>

#include "core/artifacts.hpp"
#include "core/batch.hpp"
#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/adhoc.hpp"
#include "models/cluster.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"
#include "service/plan.hpp"
#include "service/service.hpp"

namespace perfbench {
namespace {

using namespace csrl;

// ---------------------------------------------------------------------------
// Seeded draws
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny generator whose stream is fixed by the seed on
/// every platform (unlike the std distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// A value in stratum `i` of `m` equal strata of [lo, hi], jittered over
/// the middle tenth of the stratum (so a request's cost moves little
/// with the seed) and rounded to a multiple of `grid`.
double stratum(Rng& rng, double lo, double hi, std::size_t i, std::size_t m,
               double grid) {
  const double width = (hi - lo) / static_cast<double>(m);
  const double x =
      lo + width * (static_cast<double>(i) + 0.45 + 0.1 * rng.uniform());
  return std::round(x / grid) * grid;
}

/// `k` increasing axis points spanning [lo, hi], each on the `grid`.
std::vector<double> axis(double lo, double hi, std::size_t k, double grid) {
  std::vector<double> points;
  for (std::size_t i = 0; i < k; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(k - 1);
    points.push_back(std::round(x / grid) * grid);
  }
  return points;
}

/// Shortest decimal text that parses back to exactly `v`.
std::string num(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buffer;
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.below(i)]);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Seed of the random_mrm models.  It is fixed, not drawn from the run's
/// seed: the cost of a random model swings with its structure (its
/// largest exit rate, the sizes of its Sat sets) by more than the
/// benchmark's bounds, so the run's seed varies the bounds, the sampled
/// cells, the request order and the variant rotation instead.
constexpr std::uint64_t kRandomModelSeed = 20020623;

/// The injected wrong reference: far outside every tolerance.
double wrong(double reference) { return reference + 0.25; }

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

CheckOptions engine_options(P3Engine engine, std::size_t threads) {
  CheckOptions options;
  options.engine = engine;
  options.num_threads = threads;
  options.lump = false;
  options.discretisation_step = 1.0 / 32.0;
  return options;
}

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

/// `model` with every reward rate raised by one: positive everywhere, so
/// the duality of P2 (reward-bounded until) applies.
Mrm with_positive_rewards(const Mrm& model) {
  std::vector<double> rewards = model.rewards();
  for (double& r : rewards) r += 1.0;
  return Mrm(model.chain(), std::move(rewards), model.labelling(),
             model.initial_distribution());
}

/// `model` started in state 0 with certainty (replicated_mrm spreads the
/// initial mass over the clones; a point mass keeps Checker::check and
/// BatchResult::value_at applicable).
Mrm started_in_state_zero(const Mrm& model) {
  return Mrm(model.chain(), model.rewards(), model.labelling(),
             std::size_t{0});
}

Mrm cluster(std::size_t per_side) {
  ClusterParams params;
  params.workstations_per_side = per_side;
  params.premium_threshold = per_side - 1;
  return build_cluster_mrm(params);
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

/// What the engines see of an until formula: the transient states of
/// the Theorem-1 reduction (phi and not psi) and their largest reward
/// rate and exit rate.
struct UntilShape {
  double max_reward = 0.0;
  double max_exit_rate = 0.0;
};

UntilShape until_shape(const Mrm& model, const std::string& phi,
                       const std::string& psi, std::size_t threads) {
  const Checker checker(model, engine_options(P3Engine::kSericola, threads));
  const StateSet transient =
      checker.sat(*parse_formula(phi)) - checker.sat(*parse_formula(psi));
  UntilShape shape;
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    if (!transient.contains(s)) continue;
    shape.max_reward = std::max(shape.max_reward, model.reward(s));
    shape.max_exit_rate =
        std::max(shape.max_exit_rate, model.chain().exit_rate(s));
  }
  return shape;
}

void guard(bool ok, const std::string& what) {
  if (!ok) throw std::logic_error("workload generator guard: " + what);
}

/// P3 is short-circuited by joint_distribution_trivial_case when
/// r >= rho_max * t (one such request measured 0.7 ms instead of ~95 ms):
/// keep every reward bound strictly below that level.
void guard_reward_binds(const UntilShape& shape, double t, double r) {
  guard(r > 0.0 && r < shape.max_reward * t,
        "reward bound " + num(r) + " does not bind at t=" + num(t) +
            " (rho_max=" + num(shape.max_reward) + ")");
}

/// The discretisation engine needs E(s)*d < 1 on every transient state.
void guard_step(const UntilShape& shape, double step) {
  guard(shape.max_exit_rate * step < 1.0,
        "discretisation step " + num(step) + " too coarse for max E(s)=" +
            num(shape.max_exit_rate));
}

/// P2 (F{0,r}) goes through the duality transform, which throws
/// ModelError on a model with a zero reward rate (the tandem queue, the
/// cluster).
void guard_positive_rewards(const Mrm& model) {
  for (std::size_t s = 0; s < model.num_states(); ++s)
    guard(model.reward(s) > 0.0, "P2 on a model with a zero reward rate");
}

// ---------------------------------------------------------------------------
// p3_engines
// ---------------------------------------------------------------------------

/// The paper's own Q3 value (tests/test_adhoc_case_study.cpp pins it):
/// the reference of Q3 at the paper's bounds must reproduce it.
constexpr double kOurQ3Reference = 0.49699672;

class P3Engines final : public Workload {
 public:
  explicit P3Engines(const WorkloadConfig& config) : config_(config) {}

  void setup() override {
    std::vector<Mrm> models;
    {
      obs::SpanGuard span("bench/models/build");
      models.push_back(build_adhoc_mrm());
      models.push_back(cluster(6));
      models.push_back(cluster(7));
      models.push_back(cluster(8));
      models.push_back(with_positive_rewards(
          random_mrm(kRandomModelSeed, 1000, 0.003)));
    }
    artifacts_.clear();
    obs::SpanGuard span("bench/mrm/artifacts");
    for (Mrm& model : models) {
      tally_.states_built += model.num_states();
      artifacts_.push_back(ModelArtifacts::build(
          std::move(model), engine_options(P3Engine::kSericola, config_.threads)));
      tally_.quotient_states += artifacts_.back()->internal_model().num_states();
    }
  }

  void compute_references() override {
    if (requests_.empty()) generate();
    const CheckOptions reference_options = [this] {
      CheckOptions options = engine_options(P3Engine::kSericola, config_.threads);
      options.sericola_epsilon = 1e-12;
      return options;
    }();
    for (Request& request : requests_) {
      const Checker checker(artifacts_[request.model], reference_options);
      request.reference = checker.check(*parse_formula(request.text)).value;
      // Q3 at the paper's bounds must also match the pinned value.
      if (request.paper_q3 &&
          !(std::abs(request.reference - kOurQ3Reference) <= 1e-7))
        request.reference = std::nan("");
      if (config_.inject_wrong_reference)
        request.reference = wrong(request.reference);
    }
  }

  std::size_t cycle_length() const override { return requests_.size(); }
  std::size_t warmup_units() const override { return requests_.size(); }
  std::size_t traced_cycles() const override { return 2; }

  void run_unit(std::size_t index, std::vector<QueryRecord>& out) override {
    const Request& request = requests_[index];
    QueryRecord record;
    record.label = request.label;
    double value = 0.0;
    bool ok = true;
    const WallTimer timer;
    try {
      FormulaPtr formula;
      {
        obs::SpanGuard span("bench/logic/parse");
        formula = parse_formula(request.text);
      }
      ++tally_.parse_calls;
      obs::SpanGuard span("bench/core/check");
      const Checker checker(artifacts_[request.model], request.options);
      value = checker.check(*formula).value;
    } catch (const std::exception&) {
      ok = false;
    }
    record.latency_s = timer.seconds();
    record.ok = ok && std::abs(value - request.reference) <= request.tolerance;
    out.push_back(record);
  }

 private:
  struct Request {
    std::size_t model = 0;
    CheckOptions options;
    std::string text;
    const char* label = "";
    double tolerance = 0.0;
    bool paper_q3 = false;
    double reference = 0.0;
  };

  // Model indices of setup().
  static constexpr std::size_t kAdhoc = 0;
  static constexpr std::size_t kCluster6 = 1;
  static constexpr std::size_t kRandom = 4;

  void add(std::size_t model, P3Engine engine, std::string text,
           const char* label, double tolerance) {
    Request request;
    request.model = model;
    request.options = engine_options(engine, config_.threads);
    request.text = std::move(text);
    request.label = label;
    request.tolerance = tolerance;
    requests_.push_back(std::move(request));
  }

  void add_p3(std::size_t model, P3Engine engine, const std::string& phi,
              const std::string& psi, double t, double r, const char* label) {
    const UntilShape shape = until_shape(*artifacts_[model]->model(), phi, psi, config_.threads);
    guard_reward_binds(shape, t, r);
    if (engine == P3Engine::kDiscretisation) guard_step(shape, 1.0 / 32.0);
    // Tolerance against Sericola at epsilon 1e-12: the engines' own
    // error (Sericola's a-priori 1e-9; pseudo-Erlang O(1/k) at k = 256;
    // discretisation O(d) at d = 1/32).
    const double tolerance = engine == P3Engine::kSericola ? 1e-8
                             : engine == P3Engine::kErlang ? 1e-3
                                                           : 1e-2;
    add(model, engine,
        "P=? [ " + phi + " U[0," + num(t) + "]{0," + num(r) + "} " + psi + " ]",
        label, tolerance);
  }

  void generate() {
    Rng rng(config_.seed ^ 0x70336567696e6573ULL);
    // `k` requests with t drawn from the k strata of [lo, hi] and reward
    // bound r = per_t * t.
    const auto family = [&](std::size_t model, P3Engine engine,
                            const std::string& phi, const std::string& psi,
                            std::size_t k, double lo, double hi, double grid,
                            double per_t, const char* label) {
      for (std::size_t i = 0; i < k; ++i) {
        const double t = stratum(rng, lo, hi, i, k, grid);
        add_p3(model, engine, phi, psi, t, per_t * t, label);
      }
    };
    const std::string adhoc_phi = "(Call_Idle | Doze)";
    const std::string adhoc_psi = "Call_Initiated";

    // The paper's Q3 at its own bounds (t = 24 h, r = 600 mAh), twice per
    // cycle, and the Q3 family around it (r = 25 t mAh).
    for (int copy = 0; copy < 2; ++copy) {
      add(kAdhoc, P3Engine::kSericola, kQueryQ3, "adhoc/sericola", 1e-8);
      requests_.back().paper_q3 = true;
    }
    family(kAdhoc, P3Engine::kSericola, adhoc_phi, adhoc_psi, 6, 8.0, 20.0,
           0.125, 25.0, "adhoc/sericola");
    family(kAdhoc, P3Engine::kErlang, adhoc_phi, adhoc_psi, 6, 4.0, 24.0,
           0.125, 25.0, "adhoc/erlang");
    // Discretisation cost grows with t^2 (t/d steps x r/d cells): t <= 8.
    family(kAdhoc, P3Engine::kDiscretisation, adhoc_phi, adhoc_psi, 4, 4.0,
           8.0, 0.125, 25.0, "adhoc/discretisation");

    // Workstation cluster, 6-8 workstations per side: premium service
    // lost within t while the delivered capacity stays below (2N-3) t.
    for (std::size_t i = 0; i < 3; ++i) {
      const std::size_t model = kCluster6 + i;
      const double per_t = 2.0 * static_cast<double>(6 + i) - 3.0;
      family(model, P3Engine::kSericola, "premium", "!premium", 2, 20.0, 40.0,
             0.125, per_t, "cluster/sericola");
      family(model, P3Engine::kErlang, "premium", "!premium", 2, 20.0, 40.0,
             0.125, per_t, "cluster/erlang");
      family(model, P3Engine::kDiscretisation, "premium", "!premium", 2, 2.0,
             4.0, 0.125, per_t, "cluster/discretisation");
      // Q2-shaped P1 companions.
      for (std::size_t j = 0; j < 2; ++j) {
        const double t = stratum(rng, 500.0, 1000.0, j, 2, 1.0);
        add(model, P3Engine::kSericola, "P=? [ F[0," + num(t) + "] !premium ]",
            "cluster/p1", 1e-12);
      }
    }

    // Random MRM, rewards 1..4.  Under pseudo-Erlang it costs ~430 ms,
    // ~15x the workload median, so the cost guard leaves it out.
    family(kRandom, P3Engine::kSericola, "a", "b", 4, 2.0, 4.0, 0.125, 2.0,
           "random/sericola");
    family(kRandom, P3Engine::kDiscretisation, "a", "b", 2, 0.25, 0.5,
           1.0 / 32.0, 2.0, "random/discretisation");
    guard_positive_rewards(*artifacts_[kRandom]->model());
    // Q1-shaped P2 and Q2-shaped P1 companions.
    for (std::size_t j = 0; j < 2; ++j) {
      const double r = stratum(rng, 30.0, 60.0, j, 2, 1.0);
      add(kRandom, P3Engine::kSericola, "P=? [ F{0," + num(r) + "} b ]",
          "random/p2", 1e-12);
      const double t = stratum(rng, 30.0, 60.0, j, 2, 1.0);
      add(kRandom, P3Engine::kSericola, "P=? [ a U[0," + num(t) + "] b ]",
          "random/p1", 1e-12);
    }

    shuffle(requests_, rng);
  }

  WorkloadConfig config_;
  std::vector<std::shared_ptr<const ModelArtifacts>> artifacts_;
  std::vector<Request> requests_;
};

// ---------------------------------------------------------------------------
// fig1_surface
// ---------------------------------------------------------------------------

class Fig1Surface final : public Workload {
 public:
  explicit Fig1Surface(const WorkloadConfig& config) : config_(config) {}

  void setup() override {
    std::vector<Mrm> models;
    {
      obs::SpanGuard span("bench/models/build");
      models.push_back(random_mrm(kRandomModelSeed, 3000, 0.0015));
      models.push_back(started_in_state_zero(
          replicated_mrm(tandem_queue_mrm(8, 8, 2.0, 2.5, 2.0), 512)));
    }
    artifacts_.clear();
    obs::SpanGuard span("bench/mrm/artifacts");
    for (std::size_t m = 0; m < models.size(); ++m) {
      tally_.states_built += models[m].num_states();
      CheckOptions options = engine_options(P3Engine::kSericola, config_.threads);
      options.lump = m == kTandem;
      artifacts_.push_back(ModelArtifacts::build(std::move(models[m]), options));
      tally_.quotient_states += artifacts_.back()->internal_model().num_states();
    }
  }

  void compute_references() override {
    if (requests_.empty()) generate();
    for (Request& request : requests_) {
      const double t = request.times[request.cell_t];
      const double r = request.rewards[request.cell_r];
      const Checker checker(artifacts_[request.model], request.options);
      request.reference =
          checker
              .check(*parse_formula("P=? [ " + request.phi + " U[0," + num(t) +
                                    "]{0," + num(r) + "} " + request.psi + " ]"))
              .value;
      if (config_.inject_wrong_reference)
        request.reference = wrong(request.reference);
    }
  }

  std::size_t cycle_length() const override { return requests_.size(); }
  std::size_t warmup_units() const override { return 3; }
  std::size_t traced_cycles() const override { return 2; }

  void run_unit(std::size_t index, std::vector<QueryRecord>& out) override {
    const Request& request = requests_[index];
    QueryRecord record;
    record.label = request.label;
    double value = 0.0;
    bool ok = true;
    const WallTimer timer;
    try {
      BatchQuery query;
      {
        obs::SpanGuard span("bench/logic/parse");
        query.phi = parse_formula(request.phi);
        query.psi = parse_formula(request.psi);
      }
      tally_.parse_calls += 2;
      query.times = request.times;
      query.rewards = request.rewards;
      obs::SpanGuard span("bench/core/until_grid");
      const Checker checker(artifacts_[request.model], request.options);
      value = checker.until_grid(query).value_at(request.cell_t, request.cell_r);
    } catch (const std::exception&) {
      ok = false;
    }
    record.latency_s = timer.seconds();
    record.ok = ok && same_bits(value, request.reference);
    out.push_back(record);
  }

 private:
  struct Request {
    std::size_t model = 0;
    CheckOptions options;
    std::string phi;
    std::string psi;
    std::vector<double> times;
    std::vector<double> rewards;
    std::size_t cell_t = 0;
    std::size_t cell_r = 0;
    const char* label = "";
    double reference = 0.0;
  };

  static constexpr std::size_t kRandom = 0;
  static constexpr std::size_t kTandem = 1;

  void add(Rng& rng, std::size_t model, P3Engine engine, const std::string& phi,
           const std::string& psi, std::size_t size, double t_lo, double t_hi,
           double r_lo, const char* label) {
    const UntilShape shape = until_shape(*artifacts_[model]->model(), phi, psi, config_.threads);
    Request request;
    request.model = model;
    request.options = engine_options(engine, config_.threads);
    request.options.lump = model == kTandem;
    request.phi = phi;
    request.psi = psi;
    const double t_min = stratum(rng, t_lo, t_lo + 0.25 * (t_hi - t_lo), 0, 1,
                                 1.0 / 64.0);
    const double t_max = stratum(rng, t_hi - 0.25 * (t_hi - t_lo), t_hi, 0, 1,
                                 1.0 / 64.0);
    request.times = axis(t_min, t_max, size, 1.0 / 64.0);
    // Every reward bound binds at every time of the axis.
    const double binding = shape.max_reward * t_min;
    request.rewards = axis(r_lo * binding, 0.9 * binding, size, 1.0 / 64.0);
    for (double r : request.rewards) guard_reward_binds(shape, t_min, r);
    request.cell_t = rng.below(size);
    request.cell_r = rng.below(size);
    request.label = label;
    requests_.push_back(std::move(request));
  }

  void generate() {
    Rng rng(config_.seed ^ 0x6669673173757266ULL);
    // Figure-1 lattices of Pr{Y_t <= r, X_t in S'}.  Pseudo-Erlang on the
    // 3000-state random MRM takes 8-22 s per lattice (one expanded chain
    // per reward bound), ~50x the workload median: the cost guard leaves
    // it out, and keeps its tandem lattices at 4 x 4.  Each lattice once
    // per cycle: a short cycle gives each position more repeats in a run
    // to read its fastest from.
    for (std::size_t size : {4, 5, 6, 4, 5, 6})
      add(rng, kRandom, P3Engine::kSericola, "a", "b", size, 0.75, 1.75, 0.25,
          "random/sericola");
    for (std::size_t size : {4, 5, 6, 5})
      add(rng, kTandem, P3Engine::kSericola, "!full1", "full2", size, 4.0, 8.0,
          0.25, "tandem/sericola");
    for (int i = 0; i < 2; ++i)
      add(rng, kTandem, P3Engine::kErlang, "!full1", "full2", 4, 1.0, 2.0, 0.6,
          "tandem/erlang");
    shuffle(requests_, rng);
  }

  WorkloadConfig config_;
  std::vector<std::shared_ptr<const ModelArtifacts>> artifacts_;
  std::vector<Request> requests_;
};

// ---------------------------------------------------------------------------
// service_waves
// ---------------------------------------------------------------------------

class ServiceWaves final : public Workload {
 public:
  explicit ServiceWaves(const WorkloadConfig& config) : config_(config) {}

  void setup() override {
    models_.clear();
    variants_.clear();
    {
      obs::SpanGuard span("bench/models/build");
      models_.push_back(std::make_shared<const Mrm>(build_adhoc_mrm()));
      models_.push_back(std::make_shared<const Mrm>(cluster(6)));
      models_.push_back(std::make_shared<const Mrm>(
          tandem_queue_mrm(12, 12, 2.0, 2.5, 2.0)));
      models_.push_back(std::make_shared<const Mrm>(with_positive_rewards(
          random_mrm(kRandomModelSeed, 600, 0.004))));
      for (std::size_t v = 0; v < kVariants; ++v)
        variants_.push_back(std::make_shared<const Mrm>(
            random_mrm(kRandomModelSeed + 1 + v, 300, 0.01)));
    }
    for (const auto& m : models_) tally_.states_built += m->num_states();
    for (const auto& v : variants_) tally_.states_built += v->num_states();

    service::ServiceOptions options;
    options.workers = 0;
    options.check = engine_options(P3Engine::kSericola, config_.threads);
    service_.reset();
    service_ = std::make_unique<service::CheckerService>(options);
    ids_.clear();
    obs::SpanGuard span("bench/mrm/artifacts");
    // Lumping stays off here: the quotient is the model itself.
    for (const auto& model : models_) {
      ids_.push_back(service_->register_model(model));
      tally_.quotient_states += model->num_states();
    }
  }

  void compute_references() override {
    if (waves_.empty()) generate();
    // A private Checker per query, mirroring the service's value
    // semantics: a lattice-planned verdict query carries the underlying
    // probability.
    const CheckOptions options = engine_options(P3Engine::kSericola, config_.threads);
    for (Wave& wave : waves_) {
      for (Query& query : wave.queries) {
        const Mrm& model = query.model == kVariant
                               ? *variants_[wave.variant]
                               : *models_[query.model];
        const Checker checker(model, options);
        const service::QueryPlan plan = service::plan_query(query.text);
        query.reference =
            plan.kind == service::PlanKind::kLattice && !plan.is_value_query
                ? checker.value_initially(
                      *Formula::probability_query(plan.formula->path()))
                : checker.value_initially(*plan.formula);
        if (config_.inject_wrong_reference)
          query.reference = wrong(query.reference);
      }
    }
  }

  std::size_t cycle_length() const override { return waves_.size(); }
  std::size_t warmup_units() const override { return 0; }
  std::size_t traced_cycles() const override { return 2; }

  void run_unit(std::size_t index, std::vector<QueryRecord>& out) override {
    const Wave& wave = waves_[index];
    service::ModelId variant_id = 0;
    {
      obs::SpanGuard span("bench/service/register");
      variant_id = service_->register_model(variants_[wave.variant]);
    }
    std::vector<std::future<service::QueryResult>> futures;
    futures.reserve(wave.queries.size());
    for (const Query& query : wave.queries) {
      obs::SpanGuard span("bench/service/submit");
      futures.push_back(service_->submit(
          query.model == kVariant ? variant_id : ids_[query.model], query.text));
    }
    tally_.parse_calls += wave.queries.size();
    {
      obs::SpanGuard span("bench/service/drain");
      service_->drain_now();
    }
    for (std::size_t q = 0; q < futures.size(); ++q) {
      const service::QueryResult result = futures[q].get();
      QueryRecord record;
      record.label = wave.queries[q].label;
      record.latency_s = result.latency_seconds;
      if (result.status != service::QueryStatus::kOk) ++tally_.service_failed;
      record.ok = result.status == service::QueryStatus::kOk &&
                  same_bits(result.value, wave.queries[q].reference);
      out.push_back(record);
    }
  }

  void trace_extras(std::size_t index) override {
    // The parse/plan step runs inside submit(); time the same public
    // front end on the wave's texts beside the traced submits.
    for (const Query& query : waves_[index].queries) {
      obs::SpanGuard span("bench/logic/plan");
      (void)service::plan_query(query.text);
    }
  }

 private:
  static constexpr std::size_t kVariants = 8;
  // Model indices of setup(); kVariant targets the wave's variant.
  static constexpr std::size_t kAdhoc = 0;
  static constexpr std::size_t kCluster = 1;
  static constexpr std::size_t kTandem = 2;
  static constexpr std::size_t kRandom = 3;
  static constexpr std::size_t kVariant = 4;

  struct Query {
    std::size_t model = 0;
    std::string text;
    const char* label = "";
    double reference = 0.0;
  };
  struct Wave {
    std::size_t variant = 0;
    std::vector<Query> queries;
  };

  /// A lattice of coalescible P3 point queries sharing one skeleton.
  void add_lattice(Rng& rng, Wave& wave, std::size_t model,
                   const std::string& phi, const std::string& psi,
                   std::size_t nt, std::size_t nr, double t_lo, double t_hi,
                   double reward_per_time) {
    const UntilShape shape = until_shape(*models_[model], phi, psi, config_.threads);
    const double t_min = stratum(rng, t_lo, 0.5 * (t_lo + t_hi), 0, 1, 0.125);
    const double t_max = stratum(rng, 0.5 * (t_lo + t_hi), t_hi, 0, 1, 0.125);
    for (double t : axis(t_min, t_max, nt, 0.125)) {
      for (std::size_t j = 0; j < nr; ++j) {
        const double r = std::round(reward_per_time * t_min *
                                    (0.4 + 0.5 * static_cast<double>(j) /
                                               static_cast<double>(nr)) *
                                    8.0) /
                         8.0;
        guard_reward_binds(shape, t, r);
        wave.queries.push_back({model,
                                "P=? [ " + phi + " U[0," + num(t) + "]{0," +
                                    num(r) + "} " + psi + " ]",
                                "lattice"});
      }
    }
  }

  void generate() {
    Rng rng(config_.seed ^ 0x7365727669636573ULL);
    for (std::size_t w = 0; w < kVariants; ++w) {
      Wave wave;
      wave.variant = (w + config_.seed) % kVariants;
      // Two coalescible lattices: 12 and 8 point queries.
      switch (w % 4) {
        case 0:
          add_lattice(rng, wave, kCluster, "premium", "!premium", 4, 3, 10.0,
                      20.0, 9.0);
          add_lattice(rng, wave, kAdhoc, "(Call_Idle | Doze)",
                      "Call_Initiated", 2, 4, 4.0, 12.0, 25.0);
          break;
        case 1:
          add_lattice(rng, wave, kTandem, "!full1", "full2", 4, 3, 2.0, 4.0,
                      12.0);
          add_lattice(rng, wave, kRandom, "a", "b", 2, 4, 1.0, 2.0, 2.0);
          break;
        case 2:
          add_lattice(rng, wave, kRandom, "a", "b", 4, 3, 1.0, 2.0, 2.0);
          add_lattice(rng, wave, kCluster, "premium", "!premium", 2, 4, 10.0,
                      20.0, 9.0);
          break;
        default:
          add_lattice(rng, wave, kAdhoc, "(Call_Idle | Doze)",
                      "Call_Initiated", 4, 3, 4.0, 12.0, 25.0);
          add_lattice(rng, wave, kTandem, "!full1", "full2", 2, 4, 2.0, 4.0,
                      12.0);
          break;
      }
      // Direct queries: S, P0, interval P1, R and boolean roots.
      const double t = stratum(rng, 1.0, 2.0, 0, 1, 0.125);
      const double c = stratum(rng, 5.0, 10.0, 0, 1, 0.125);
      wave.queries.push_back({kTandem, "S=? [ full1 | full2 ]", "direct"});
      wave.queries.push_back({kCluster, "P=? [ premium U LeftSwitchDown ]", "direct"});
      wave.queries.push_back(
          {kRandom, "P>=0.5 [ a U[" + num(t) + "," + num(2 * t) + "] b ]", "direct"});
      wave.queries.push_back({kRandom, "R=? [ C<=" + num(c) + " ]", "direct"});
      wave.queries.push_back({kTandem, "R=? [ I=" + num(c) + " ]", "direct"});
      wave.queries.push_back({kTandem, "empty | full1", "direct"});
      wave.queries.push_back({kCluster, "premium & !minimum", "direct"});
      wave.queries.push_back({kAdhoc, kPropertyQ2, "direct"});
      // The wave's freshly registered variant.
      wave.queries.push_back(
          {kVariant, "P=? [ a U[0," + num(c) + "] b ]", "variant"});
      wave.queries.push_back({kVariant, "S=? [ a ]", "variant"});
      wave.queries.push_back({kVariant, "R=? [ C<=" + num(c) + " ]", "variant"});
      wave.queries.push_back({kVariant, "a & !b", "variant"});
      waves_.push_back(std::move(wave));
    }
  }

  WorkloadConfig config_;
  std::vector<std::shared_ptr<const Mrm>> models_;
  std::vector<std::shared_ptr<const Mrm>> variants_;
  std::unique_ptr<service::CheckerService> service_;
  std::vector<service::ModelId> ids_;
  std::vector<Wave> waves_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"p3_engines", "fig1_surface", "service_waves"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "p3_engines") return std::make_unique<P3Engines>(config);
  if (name == "fig1_surface") return std::make_unique<Fig1Surface>(config);
  if (name == "service_waves") return std::make_unique<ServiceWaves>(config);
  return nullptr;
}

}  // namespace perfbench
