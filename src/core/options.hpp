// Configuration of the model checker.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/engines/engine.hpp"
#include "ctmc/uniformisation.hpp"
#include "matrix/solvers.hpp"
#include "util/contracts.hpp"

namespace csrl {

/// Which of the paper's three procedures decides time- and reward-bounded
/// until formulas (property class P3).
enum class P3Engine {
  kSericola,        // Section 4.4 — the default: a-priori error bound
  kDiscretisation,  // Section 4.3
  kErlang,          // Section 4.2
};

/// All knobs of the checking pipeline.  The defaults give at least ~9
/// significant digits on well-conditioned models.
struct CheckOptions {
  /// Engine for P3 (time- and reward-bounded until) formulas.
  P3Engine engine = P3Engine::kSericola;

  /// Error bound for the Sericola engine's Poisson truncation.
  double sericola_epsilon = 1e-9;

  /// Erlang order k of the pseudo-Erlang engine.
  std::size_t erlang_phases = 256;

  /// Step size d of the Tijms-Veldman engine.  Callers must align t, r and
  /// the reward structure with it (see DiscretisationEngine).
  double discretisation_step = 1.0 / 64.0;

  /// Transient-analysis controls for time-bounded until (P1), the
  /// duality-based reward-bounded until (P2) and the pseudo-Erlang
  /// engine's phase-chain runs (P3).
  TransientOptions transient{};

  /// Linear-solver controls for unbounded until (P0) and the steady-state
  /// operator.
  SolverOptions solver{};

  /// Memoise Sat sets of subformulas (keyed by the model fingerprint and
  /// the formula's structural hash, verified by the canonical printed
  /// form), so repeated fragments across queries are checked once per
  /// cache.  A SatCache passed to the Checker constructor is shared across
  /// checkers; otherwise each Checker owns a private one.
  bool cache_sat_sets = true;

  /// Runtime numerical contract level (util/contracts.hpp): kOff, kBasic
  /// (cheap structural/row-sum/bounds checks at the places that establish
  /// them), kParanoid (+ engine re-runs checking monotonicity in r and
  /// 1-vs-N-thread agreement).  Unset leaves the process-wide setting
  /// alone — the CSRL_VALIDATE environment variable if present, else off
  /// in NDEBUG builds and basic in debug builds.  Like num_threads, a set
  /// value applies process-wide (validation::set_level).
  std::optional<ValidationLevel> validate{};

  /// Collect a machine-readable RunReport (src/obs/report.hpp) for each
  /// Checker::check and Checker::until_grid call: engine chosen, model
  /// dimensions, Fox-Glynn window, iteration/SpMV counters and span
  /// timings, plus the grid axes for until_grid.  Checker::check also
  /// reports when recording is already on process-wide (the CSRL_TRACE
  /// environment variable or obs::set_recording); until_grid does not.
  bool report = false;

  /// Collapse the model to its bisimulation quotient (mrm/lumping.hpp)
  /// before checking.  This is purely internal: the checker quotients
  /// once at construction, checks on the (often far smaller) quotient,
  /// and lifts every public result — Sat sets, per-state vectors,
  /// until_grid lattices — back through the block projection, so the
  /// public state numbering is unchanged.  Composes with the duality
  /// pipeline (derived checkers inherit the quotient and never re-lump).
  /// Unset resolves via the CSRL_LUMP environment variable ("0"/"1";
  /// malformed values warn and fall back), else off.  Off by
  /// default — the refiner costs a few signature sweeps and only pays on
  /// models with symmetric structure, where it pays enormously
  /// (bench_ablation_lumping).  Construction throws ModelError when
  /// impulse rewards prevent an exact quotient.
  std::optional<bool> lump{};

  /// Number of threads for the parallel kernels and engine sweeps.
  /// 0 = automatic: the CSRL_THREADS environment variable if set, else
  /// std::thread::hardware_concurrency().  All checking through one
  /// Checker — including every nested subformula — shares one pool.
  /// Results are bit-identical at any thread count (see DESIGN.md,
  /// "Parallel execution").
  std::size_t num_threads = 0;
};

/// Instantiate the configured P3 engine.
std::unique_ptr<JointDistributionEngine> make_engine(const CheckOptions& options);

/// Report label of the configured P3 engine (matches Engine::name()).
std::string engine_label(const CheckOptions& options);

/// Configured a-priori error knob of the run: the Sericola truncation
/// epsilon, the O(d) discretisation step, or the transient-analysis
/// epsilon for the pseudo-Erlang pipeline.
double engine_truncation_error(const CheckOptions& options);

}  // namespace csrl
