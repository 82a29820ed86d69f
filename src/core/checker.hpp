// The CSRL model checker (Section 3 of the paper).
//
// Checking is the usual bottom-up traversal of the formula parse tree:
// every subformula is resolved to the set Sat(Phi) of states satisfying
// it.  Boolean connectives are set operations; the temporal operators
// dispatch to numerical procedures chosen by the shape of their time
// interval I and reward interval J, following the paper's taxonomy:
//
//   P0  (I, J unbounded)        linear system on the embedded DTMC [13]
//   P1  (only I bounded)        absorbing transform + transient analysis [3]
//   P2  (only J bounded)        duality transform [4, Thm 1] + P1
//   P3  (I and J bounded)       Theorem 1 reduction + a joint-distribution
//                               engine (Section 4; selectable, Sericola by
//                               default)
//
// The steady-state operator S~p follows [2]: BSCC analysis, one stationary
// distribution per BSCC, and unbounded reachability towards the BSCCs.
//
// Extensions beyond the paper's fragment (its Section 6 outlook):
//   * general time intervals [t1, t2] for reward-unbounded until, via the
//     standard two-phase scheme; through duality this also yields general
//     reward intervals [r1, r2] for time-unbounded until;
//   * quantitative queries P=?[...] / S=?[...].
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "logic/formula.hpp"
#include "mrm/mrm.hpp"
#include "obs/report.hpp"
#include "util/state_set.hpp"

namespace csrl {

struct BatchQuery;
struct BatchResult;
class ModelArtifacts;
class SatCache;

/// Result of a full quantitative check, optionally carrying the run's
/// observability report (CheckOptions::report, or process-wide recording
/// via CSRL_TRACE / obs::set_recording).
struct CheckResult {
  /// value_initially(f): the probability for P=?/S=? roots, a 0/1
  /// indicator for boolean-valued formulas.
  double value = 0.0;

  /// Engine, model dimensions, Fox-Glynn window, iteration/SpMV counters
  /// and span timings of this check; engaged only when reporting was
  /// requested.
  std::optional<obs::RunReport> report;
};

/// Model checker bound to one model.  The model must outlive the checker.
class Checker {
 public:
  /// `sat_cache` shares memoised Sat sets across checkers (core/batch.hpp);
  /// entries are keyed by the model fingerprint, so one cache safely serves
  /// checkers bound to different models.  Null gives this checker a private
  /// cache (or none, when CheckOptions::cache_sat_sets is off).  Builds the
  /// model's artifacts over a borrowed pointer and delegates to the
  /// artifacts constructor, so lumping follows `options` exactly as
  /// ModelArtifacts::build applies it.
  explicit Checker(const Mrm& model, CheckOptions options = {},
                   std::shared_ptr<SatCache> sat_cache = nullptr);

  /// Checker over precomputed shared artifacts (core/artifacts.hpp):
  /// construction is O(1) — the fingerprint and any quotient come from
  /// the artifact, which the checker keeps alive (no outlive
  /// obligation on the caller).  This is the stateless-engine form the
  /// resident service uses: one immutable artifact per registered model,
  /// any number of concurrent short-lived checkers on top of it.
  /// `options.lump` is ignored here — lumping is decided when the
  /// artifact is built.
  explicit Checker(std::shared_ptr<const ModelArtifacts> artifacts,
                   CheckOptions options = {},
                   std::shared_ptr<SatCache> sat_cache = nullptr);

  /// The set Sat(f).  Throws ModelError if f contains a quantitative query
  /// node (P=? / S=? / R=?), which has no truth value.
  StateSet sat(const Formula& f) const;

  /// Convenience: does the model's initial state satisfy f?  (Requires a
  /// point-mass initial distribution.)
  bool holds_initially(const Formula& f) const;

  /// Per-state quantitative values: probabilities for P=?/S=? roots,
  /// expected rewards for R=? roots, 0/1 indicators for boolean-valued
  /// formulas.
  std::vector<double> values(const Formula& f) const;

  /// values(f) at the initial state.
  double value_initially(const Formula& f) const;

  /// value_initially(f) plus, when CheckOptions::report asks (or
  /// recording is already on), the run's RunReport.  When the
  /// CSRL_OBS_OUT environment variable names an output stem the report
  /// and a chrome://tracing file are also written to disk.
  CheckResult check(const Formula& f) const;

  /// Batched P3 evaluation (core/batch.hpp): one until formula over the
  /// query's full times x rewards lattice in a single engine pass, every
  /// value bitwise identical to the point-by-point loop.  With
  /// CheckOptions::report set the result also carries a RunReport with
  /// the grid axes, written to CSRL_OBS_OUT as check() writes its own.
  /// Unlike check(), process-wide recording alone does not attach a
  /// report: services and benches run until_grid repeatedly with
  /// recording on, and a report per call would copy the span buffers and
  /// rewrite the output files on every pass.
  BatchResult until_grid(const BatchQuery& query) const;

  /// The model as constructed — with CheckOptions::lump the checker
  /// computes on the bisimulation quotient, but this (like every public
  /// result) always speaks the original numbering.
  const Mrm& model() const { return *original_model_; }
  const CheckOptions& options() const { return options_; }

 private:
  // The *_internal methods hold the actual checking logic and speak the
  // internal state numbering (identical to the public one unless lump
  // engaged); their public twins lift the results at the boundary.
  // Every other private method speaks the internal numbering too.
  StateSet sat_internal(const Formula& f) const;
  std::vector<double> values_internal(const Formula& f) const;
  BatchResult until_grid_internal(const BatchQuery& query) const;

  // Internal -> original lifting through to_internal_, the identity when
  // lumping is not in effect: every original state reads its image
  // (well-defined even when the projection is many-to-one).
  std::vector<double> map_to_original(std::vector<double> values) const;
  StateSet map_to_original(const StateSet& internal_set) const;
  // The internal image of the original model's initial state, so that
  // lumping never turns a mixed initial distribution into a point mass.
  // Throws ModelError when the original distribution is not a point mass.
  std::size_t initial_internal() const;

  // Runs `run` under a ReportScope with the core/check span and latency
  // histogram, and returns its RunReport (lumping section and, for
  // grid runs, the grid axes filled in) after writing it to
  // CSRL_OBS_OUT if requested.
  template <typename Run>
  obs::RunReport reported(Run&& run, std::span<const double> grid_times = {},
                          std::span<const double> grid_rewards = {}) const;

  // The per-state numbers a P, S or R operator compares with its bound
  // (or returns, as a =? query): path probabilities, long-run
  // probabilities of Sat(Phi), or expected rewards.
  std::vector<double> quantities(const Formula& f) const;
  std::vector<double> path_probabilities(const PathFormula& p) const;
  // Per-state expected-reward values of a kReward formula
  // (reward_formulas.cpp): E_s[Y_t], E_s[rho(X_t)], expected reward to
  // reach a target (+infinity where reaching is not almost sure), or the
  // long-run reward rate.  Impulse rewards are included via their arrival
  // intensity except in the instantaneous measure.
  std::vector<double> reward_values(const Formula& f) const;
  // Long-run average of a per-state weight (steady.cpp): the indicator
  // of Sat(Phi) gives S=? [ Phi ], the effective reward rates give
  // R=? [ S ].
  std::vector<double> long_run_average(const std::vector<double>& weight) const;

  StateSet compute_sat(const Formula& f) const;
  std::vector<double> next_probabilities(const PathFormula& p) const;
  std::vector<double> until_probabilities(const PathFormula& p) const;

  // The four property classes (until.cpp).
  std::vector<double> unbounded_until(const StateSet& phi,
                                      const StateSet& psi) const;
  std::vector<double> time_bounded_until(const StateSet& phi,
                                         const StateSet& psi,
                                         Interval time) const;
  std::vector<double> reward_bounded_until(const StateSet& phi,
                                           const StateSet& psi,
                                           Interval reward) const;
  std::vector<double> time_reward_bounded_until(const StateSet& phi,
                                                const StateSet& psi, double t,
                                                double r) const;

  // Shared lattice evaluation behind until_grid and the P3 point path
  // (which is a 1 x 1 grid); defined in batch.cpp.
  std::vector<std::vector<double>> until_grid_sets(
      const StateSet& phi, const StateSet& psi, std::span<const double> times,
      std::span<const double> rewards) const;

  // The model all checking runs on: the constructor argument, or the
  // bisimulation quotient when lump engaged.
  const Mrm* model_;
  // The constructor argument, always; what model() returns.
  const Mrm* original_model_;
  CheckOptions options_;
  // Sat-set memo (core/batch.hpp), possibly shared across checkers; null
  // when cache_sat_sets is off.  The fingerprint scopes this checker's
  // entries within the cache.
  std::shared_ptr<SatCache> sat_cache_;
  std::uint64_t model_fingerprint_ = 0;
  // Original index -> internal index projection: the lumping block map,
  // empty when lump is off.
  std::vector<std::size_t> to_internal_;
  // Dimensions and refiner accounting of the lumping pass, for the
  // RunReport "lumping" section; enabled is false when lump is off.
  obs::RunReport::Lumping lump_info_;
  // The model's artifacts: they decide lumping and keep the quotient
  // alive for this checker's lifetime (and the model itself, unless the
  // model constructor borrowed it).
  std::shared_ptr<const ModelArtifacts> artifacts_;
};

}  // namespace csrl
