#include "core/checker.hpp"

#include <cmath>

#include "core/artifacts.hpp"
#include "core/batch.hpp"
#include "core/engines/discretisation_engine.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace csrl {

namespace {

/// The artifacts of a caller-owned model: lumped exactly as the service's
/// registered models are, over a non-owning pointer (the
/// caller keeps `model` alive).  The requested validation level applies
/// before the passes run, as it does for checking.
std::shared_ptr<const ModelArtifacts> borrowed_artifacts(
    const Mrm& model, const CheckOptions& options) {
  if (options.validate) validation::set_level(*options.validate);
  return ModelArtifacts::build(
      std::shared_ptr<const Mrm>(std::shared_ptr<const Mrm>(), &model),
      options);
}

}  // namespace

Checker::Checker(const Mrm& model, CheckOptions options,
                 std::shared_ptr<SatCache> sat_cache)
    : Checker(borrowed_artifacts(model, options), options,
              std::move(sat_cache)) {}

Checker::Checker(std::shared_ptr<const ModelArtifacts> artifacts,
                 CheckOptions options, std::shared_ptr<SatCache> sat_cache)
    : model_(&artifacts->internal_model()),
      original_model_(artifacts->model().get()),
      options_(options),
      sat_cache_(std::move(sat_cache)),
      artifacts_(std::move(artifacts)) {
  // Applied here as well as in make_engine so the P0/P1/P2 pipelines
  // (which never instantiate a P3 engine) also see the requested level.
  if (options_.validate) validation::set_level(*options_.validate);
  // Lumping was decided when the artifact was built.  Consume the flag
  // so checkers built internally on derived models (e.g. the duality
  // pipeline's dual checker) inherit the quotient and never quotient
  // again: their per-state vectors feed straight back into this
  // checker's internal computations.  The artifact keeps the quotient
  // alive.
  options_.lump = false;
  to_internal_ = artifacts_->projection();
  lump_info_ = artifacts_->lumping_info();
  if (!sat_cache_ && options_.cache_sat_sets)
    sat_cache_ = std::make_shared<SatCache>();
  // The artifact already paid the O(nnz) fingerprint walk — the whole
  // point of this constructor.
  if (sat_cache_) model_fingerprint_ = artifacts_->internal_fingerprint();
}

StateSet Checker::sat(const Formula& f) const {
  return map_to_original(sat_internal(f));
}

std::vector<double> Checker::values(const Formula& f) const {
  return map_to_original(values_internal(f));
}

std::vector<double> Checker::map_to_original(std::vector<double> values) const {
  if (to_internal_.empty()) return values;
  std::vector<double> out(to_internal_.size());
  for (std::size_t s = 0; s < out.size(); ++s) out[s] = values[to_internal_[s]];
  return out;
}

StateSet Checker::map_to_original(const StateSet& internal_set) const {
  if (to_internal_.empty()) return internal_set;
  StateSet out(to_internal_.size());
  for (std::size_t s = 0; s < to_internal_.size(); ++s)
    if (internal_set.contains(to_internal_[s])) out.insert(s);
  return out;
}

StateSet Checker::sat_internal(const Formula& f) const {
  // Cheap leaves are not worth a cache probe; numerically expensive nodes
  // (temporal/steady/reward operators under boolean structure) are.
  if (!sat_cache_ || f.kind() == FormulaKind::kTrue ||
      f.kind() == FormulaKind::kAtomic) {
    return compute_sat(f);
  }
  if (std::optional<StateSet> hit = sat_cache_->find(model_fingerprint_, f)) {
    CSRL_COUNT("core/sat_cache/hits", 1);
    return *std::move(hit);
  }
  CSRL_COUNT("core/sat_cache/misses", 1);
  StateSet result = compute_sat(f);
  sat_cache_->insert(model_fingerprint_, f, result);
  return result;
}

StateSet Checker::compute_sat(const Formula& f) const {
  const std::size_t n = model_->num_states();
  switch (f.kind()) {
    case FormulaKind::kTrue:
      return StateSet(n, /*filled=*/true);
    case FormulaKind::kAtomic:
      return model_->labelling().states_with(f.name());
    case FormulaKind::kNot:
      return sat_internal(*f.operand()).complement();
    case FormulaKind::kAnd:
      return sat_internal(*f.lhs()) & sat_internal(*f.rhs());
    case FormulaKind::kOr:
      return sat_internal(*f.lhs()) | sat_internal(*f.rhs());
    case FormulaKind::kProb:
    case FormulaKind::kSteady:
    case FormulaKind::kReward: {
      if (f.is_query())
        throw ModelError(
            "sat: P=?, S=? and R=? are quantitative queries and have no "
            "truth value; use values() or give a bound");
      const std::vector<double> numbers = quantities(f);
      StateSet result(n);
      for (std::size_t s = 0; s < n; ++s)
        if (compare(f.comparison(), numbers[s], f.bound())) result.insert(s);
      return result;
    }
  }
  throw Error("Checker::sat: invalid formula kind");
}

std::size_t Checker::initial_internal() const {
  const std::size_t s = original_model_->initial_state();
  return to_internal_.empty() ? s : to_internal_[s];
}

bool Checker::holds_initially(const Formula& f) const {
  return sat_internal(f).contains(initial_internal());
}

std::vector<double> Checker::quantities(const Formula& f) const {
  if (f.kind() == FormulaKind::kProb) return path_probabilities(*f.path());
  if (f.kind() == FormulaKind::kSteady)
    return long_run_average(sat_internal(*f.operand()).indicator());
  return reward_values(f);
}

std::vector<double> Checker::values_internal(const Formula& f) const {
  return f.is_query() ? quantities(f) : sat_internal(f).indicator();
}

double Checker::value_initially(const Formula& f) const {
  return values_internal(f)[initial_internal()];
}

template <typename Run>
obs::RunReport Checker::reported(Run&& run,
                                 std::span<const double> grid_times,
                                 std::span<const double> grid_rewards) const {
  obs::ReportScope scope;
  {
    CSRL_SPAN("core/check");
    const WallTimer latency_timer;
    run();
    // Seconds into the log-bucketed histogram: the RunReport lifts its
    // p50/p99 from this delta, and a resident service reusing one scope
    // across queries gets real percentiles from the same site.
    CSRL_HIST("latency/check", latency_timer.seconds());
  }
  obs::RunReport report =
      scope.finish(engine_label(options_), model_->num_states(),
                   model_->rates().nnz(), engine_truncation_error(options_));
  report.lumping = lump_info_;
  report.grid_times.assign(grid_times.begin(), grid_times.end());
  report.grid_rewards.assign(grid_rewards.begin(), grid_rewards.end());
  obs::write_report_if_requested(report);
  return report;
}

CheckResult Checker::check(const Formula& f) const {
  CheckResult result;
  const auto run = [&] { result.value = value_initially(f); };
  if (options_.report || obs::recording_enabled())
    result.report = reported(run);
  else
    run();
  return result;
}

BatchResult Checker::until_grid(const BatchQuery& query) const {
  BatchResult result;
  const auto run = [&] {
    result = until_grid_internal(query);
    for (std::vector<double>& cell : result.per_state)
      cell = map_to_original(std::move(cell));
    // Read from the original distribution: under lumping the internal
    // initial state has no unique original counterpart.
    result.initial_state = original_model_->point_mass_state().value_or(
        original_model_->num_states());
  };
  if (options_.report)
    result.report = reported(run, query.times, query.rewards);
  else
    run();
  return result;
}

std::vector<double> Checker::path_probabilities(const PathFormula& p) const {
  if (p.kind() == PathKind::kNext) return next_probabilities(p);
  if (p.kind() == PathKind::kWeakUntil) {
    // Phi W Psi fails exactly when the path leaves Phi before reaching Psi
    // within the bounds: the complement is (Phi & !Psi) U (!Phi & !Psi).
    const FormulaPtr not_psi = Formula::negation(p.target());
    const PathFormulaPtr complement = PathFormula::until(
        p.time(), p.reward(), Formula::conjunction(p.lhs(), not_psi),
        Formula::conjunction(Formula::negation(p.lhs()), not_psi));
    std::vector<double> probs = until_probabilities(*complement);
    for (double& v : probs) v = 1.0 - v;
    return probs;
  }
  if (p.kind() == PathKind::kGlobally) {
    // Pr(G^I_J Phi) = 1 - Pr(F^I_J !Phi): the violating paths are exactly
    // those that eventually reach a !Phi-state within the bounds.
    const PathFormulaPtr complement = PathFormula::eventually(
        p.time(), p.reward(), Formula::negation(p.target()));
    std::vector<double> probs = until_probabilities(*complement);
    for (double& v : probs) v = 1.0 - v;
    return probs;
  }
  return until_probabilities(p);
}

std::vector<double> Checker::next_probabilities(const PathFormula& p) const {
  const std::size_t n = model_->num_states();
  const StateSet targets = sat_internal(*p.target());
  const Interval& time = p.time();
  const Interval& reward = p.reward();

  std::vector<double> result(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const double exit = model_->chain().exit_rate(s);
    if (exit == 0.0) continue;  // no next transition ever happens
    const double rho = model_->reward(s);

    // Per target transition: the jump instant T ~ Exp(exit) must satisfy
    // T in I and rho(s)*T + iota(s, s') in J; both constraints intersect
    // to one interval [a, b] of admissible jump instants.  (Without
    // impulses the interval is the same for every arc, but the per-arc
    // loop costs the same here.)
    double acc = 0.0;
    for (const auto& e : model_->rates().row(s)) {
      if (!targets.contains(e.col)) continue;
      const double iota = model_->impulse(s, e.col);
      double a = time.lo;
      double b = time.hi;
      if (rho > 0.0) {
        a = std::max(a, (reward.lo - iota) / rho);
        b = std::min(b, (reward.hi - iota) / rho);
      } else if (iota < reward.lo || iota > reward.hi) {
        continue;  // the jump reward is exactly iota; it misses the window
      }
      if (a > b) continue;
      const double mass = std::exp(-exit * std::max(a, 0.0)) -
                          (std::isinf(b) ? 0.0 : std::exp(-exit * b));
      acc += e.value / exit * mass;
    }
    result[s] = acc;
  }
  return result;
}

std::vector<double> Checker::until_probabilities(const PathFormula& p) const {
  const StateSet phi = sat_internal(*p.lhs());
  const StateSet psi = sat_internal(*p.target());
  const Interval& time = p.time();
  const Interval& reward = p.reward();

  // An unsatisfiable right-hand side makes the until fail surely; deciding
  // this here keeps the numerical pipelines (and their preconditions, e.g.
  // the duality's positive rewards) out of the trivial case.
  if (psi.empty()) return std::vector<double>(model_->num_states(), 0.0);

  if (reward.is_unbounded()) {
    if (time.is_unbounded()) return unbounded_until(phi, psi);
    return time_bounded_until(phi, psi, time);
  }
  if (time.is_unbounded()) return reward_bounded_until(phi, psi, reward);

  // Both dimensions bounded: property class P3.  The paper's three
  // procedures cover intervals anchored at 0; general windows (its
  // Section-6 outlook) are served by the discretisation engine's grid
  // extension.
  if (time.lo != 0.0 || reward.lo != 0.0) {
    if (options_.engine != P3Engine::kDiscretisation)
      throw ModelError(
          "until: general time/reward windows are only implemented by the "
          "discretisation engine (set CheckOptions::engine to "
          "kDiscretisation) or the simulator");
    return DiscretisationEngine(options_.discretisation_step)
        .interval_until_all_starts(*model_, phi, psi, time, reward);
  }
  return time_reward_bounded_until(phi, psi, time.hi, reward.hi);
}

}  // namespace csrl
