// Batched multi-query P3 evaluation with Sat-subformula caching
// (DESIGN.md section 3d).
//
// A performability study rarely asks one question: Figure 1 of the paper
// is a whole surface of Pr{Y_t <= r, X_t in S'} values, and Tables 2-4
// sweep the bounds as well.  Evaluating such a lattice point by point
// re-runs the engines' recursions from scratch although each of them
// yields the smaller bounds as by-products — Sericola's column sweeps
// serve every r' <= r, one uniformisation vector-power sequence serves
// every t' <= t, and the discretisation F-grid passes through every
// smaller (t', r') cell on the way.  BatchQuery evaluates one until
// formula over a full times x rewards lattice through those batched
// engine entry points, at close to the cost of a single (max t, max r)
// solve, with every value bitwise identical to the point-by-point loop.
//
// SatCache is the layer underneath: the Sat sets of the until operands
// (and of every subformula met along the way) are memoised across queries
// and across Checker instances, keyed by the model fingerprint combined
// with the formula's structural hash and verified against the canonical
// printed form.  Invalidation is by construction: a changed model changes
// its fingerprint (all inputs enter bit-for-bit), so stale entries can
// never be returned — they merely age in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/formula.hpp"
#include "obs/report.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/state_set.hpp"

namespace csrl {

/// One time- and reward-bounded until query, evaluated over the full
/// times x rewards lattice: for every pair (t, r),
/// Pr{ phi U^[0,t]_[0,r] psi } from every state.
struct BatchQuery {
  /// Left-hand side of the until; null means "true" (i.e. eventually).
  FormulaPtr phi;
  /// Right-hand side of the until; required.
  FormulaPtr psi;
  /// Time-bound axis (each entry >= 0, any order, repeats allowed).
  std::vector<double> times;
  /// Reward-bound axis (same conventions).
  std::vector<double> rewards;
};

/// Result lattice of a BatchQuery, grid-point major.
struct BatchResult {
  /// The axes the query was evaluated on (copied from the BatchQuery).
  std::vector<double> times;
  std::vector<double> rewards;

  /// per_state[i * rewards.size() + j][s] = Pr_s{ phi U^[0,t_i]_[0,r_j] psi }.
  std::vector<std::vector<double>> per_state;

  /// The model's initial state if its distribution is a point mass;
  /// num_states (one past the valid range) otherwise.
  std::size_t initial_state = 0;

  /// The per-state vector at lattice point (times[i], rewards[j]).
  const std::vector<double>& at(std::size_t time_index,
                                std::size_t reward_index) const;

  /// at(i, j) read at the initial state; throws ModelError when the
  /// initial distribution is not a point mass.
  double value_at(std::size_t time_index, std::size_t reward_index) const;

  /// Engaged by Checker::until_grid under CheckOptions::report; carries
  /// the grid axes in its grid_times / grid_rewards fields.
  std::optional<obs::RunReport> report;
};

/// Cross-query Sat-set memo (see file comment).  Thread-safe: every
/// probe and insert runs under the internal mutex, so one cache can be
/// shared across concurrent checkers — the substrate the resident
/// service layer (ROADMAP item 1) builds on.  Contention is not a
/// concern: a probe costs a hash lookup plus a string compare, dwarfed
/// by the numerical work a hit saves.
/// The cache-key scheme: bucket = mix(model fingerprint, formula hash),
/// candidate entries verified by the canonical printed form, so a hash
/// collision costs a string compare, never a wrong Sat set.
class SatCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// The cached Sat set for `f` on the model with this fingerprint, or
  /// nullopt.  Counts a hit or miss.  Returns a copy made under the
  /// lock, so the result stays valid whatever other threads insert.
  std::optional<StateSet> find(std::uint64_t model_fingerprint,
                               const Formula& f) CSRL_EXCLUDES(mutex_);

  /// Memoise Sat(f) for the model with this fingerprint.  Overwrites an
  /// existing entry for the same formula (the sets are equal anyway).
  void insert(std::uint64_t model_fingerprint, const Formula& f, StateSet sat)
      CSRL_EXCLUDES(mutex_);

  /// Number of memoised (model, formula) pairs.
  std::size_t size() const CSRL_EXCLUDES(mutex_);

  /// Hit/miss totals since construction (by value: a snapshot, not a
  /// reference into guarded state).
  Stats stats() const CSRL_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string canonical;  // f.to_string(): the collision-proof identity
    StateSet sat;
  };

  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_
      CSRL_GUARDED_BY(mutex_);
  std::size_t size_ CSRL_GUARDED_BY(mutex_) = 0;
  Stats stats_ CSRL_GUARDED_BY(mutex_);
};

}  // namespace csrl
