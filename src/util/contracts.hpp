// Runtime numerical contracts.
//
// The correctness of the numerical core rests on invariants the type
// system cannot see: probability vectors stay inside [0,1], stochastic
// rows sum to 1, generator rows sum to 0, CSR structure stays sorted and
// duplicate-free, the P3 joint distribution is monotone in the reward
// bound.  The CSRL_CONTRACT macro family makes those invariants
// machine-checkable at the places that establish them, with three gears:
//
//   * compiled out entirely with -DCSRL_CONTRACTS=OFF (macros expand to
//     nothing; release builds pay zero cost),
//   * compiled in but dormant by default in NDEBUG builds (one predicted
//     branch on a cached level per contract site),
//   * switched on at runtime by the CSRL_VALIDATE environment variable
//     ("1"/"basic" for the cheap O(n)/O(nnz) checks, "2"/"paranoid" to
//     additionally re-run engines for monotonicity and 1-vs-N-thread
//     agreement), by CheckOptions::validate, or programmatically with
//     validation::set_level / ScopedValidation (what the tests use).
//
// Violations throw ContractViolation (util/error.hpp) carrying the
// failed expression, source location, and a caller-supplied context
// string (matrix name, row, value, tolerance).  The context expression
// is evaluated lazily — only when the contract actually fails — so
// call sites may build rich std::string messages without cost in the
// passing case.
#pragma once

#include <atomic>
#include <cstdlib>
#include <string>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace csrl {

/// How much runtime validation the contract sites perform.
enum class ValidationLevel {
  kOff = 0,       // contracts are no-ops
  kBasic = 1,     // cheap structural/numerical checks, O(n) or O(nnz)
  kParanoid = 2,  // + recomputation-based checks (monotonicity in r,
                  //   1-thread vs N-thread agreement): several times the
                  //   cost of the computation being checked
};

namespace validation {

namespace detail {

/// -1 encodes "no programmatic override: fall back to the environment".
inline std::atomic<int>& override_level() {
  static std::atomic<int> level{-1};
  return level;
}

/// CSRL_VALIDATE parsed once per process; absent/unrecognised values fall
/// back to the build-type default (basic in debug builds, off otherwise).
inline ValidationLevel env_level() {
  static const ValidationLevel parsed = [] {
    if (const char* env = std::getenv("CSRL_VALIDATE")) {
      const std::string v(env);
      if (v == "0" || v == "off" || v == "false" || v == "none")
        return ValidationLevel::kOff;
      if (v == "2" || v == "paranoid" || v == "full")
        return ValidationLevel::kParanoid;
      if (v == "1" || v == "on" || v == "true" || v == "basic")
        return ValidationLevel::kBasic;
    }
#ifdef NDEBUG
    return ValidationLevel::kOff;
#else
    return ValidationLevel::kBasic;
#endif
  }();
  return parsed;
}

}  // namespace detail

/// The level contract sites currently check at.
inline ValidationLevel level() {
  const int forced = detail::override_level().load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<ValidationLevel>(forced);
  return detail::env_level();
}

/// Programmatic override of the environment/build default (process-wide,
/// like ThreadPool::set_global_threads).  CheckOptions::validate routes
/// here.
inline void set_level(ValidationLevel l) {
  detail::override_level().store(static_cast<int>(l),
                                 std::memory_order_relaxed);
}

inline bool enabled() { return level() >= ValidationLevel::kBasic; }
inline bool paranoid() { return level() >= ValidationLevel::kParanoid; }

/// Throw the single contract-failure error type with full context.  The
/// innermost active tracing span (obs/obs.hpp) is appended when one is
/// open, so a violation thrown deep inside an engine self-locates
/// ("... (span: core/until/p3/p3/sericola/all_starts)") even in builds
/// and runs where nothing is being recorded — the span *stack* is
/// maintained whenever the observability sites are compiled in.
[[noreturn]] inline void fail(const char* file, int line, const char* expr,
                              const std::string& context) {
  std::string message = std::string(expr) + " [" + file + ":" +
                        std::to_string(line) + "] " + context;
  if (const std::string span = obs::current_span_path(); !span.empty())
    message += " (span: " + span + ")";
  throw ContractViolation(std::move(message));
}

}  // namespace validation

/// RAII level override for tests and tools: forces `l` on construction,
/// restores the previous state (override or environment fallback) on
/// destruction.
class ScopedValidation {
 public:
  explicit ScopedValidation(ValidationLevel l)
      : previous_(validation::detail::override_level().load(
            std::memory_order_relaxed)) {
    validation::set_level(l);
  }
  ~ScopedValidation() {
    validation::detail::override_level().store(previous_,
                                               std::memory_order_relaxed);
  }
  ScopedValidation(const ScopedValidation&) = delete;
  ScopedValidation& operator=(const ScopedValidation&) = delete;

 private:
  int previous_;
};

}  // namespace csrl

// CSRL_CONTRACT(cond, context): check `cond` when validation is enabled;
// on failure throw ContractViolation with the stringised condition,
// source location and the lazily evaluated `context` (any expression
// convertible to std::string).  CSRL_CONTRACT_PARANOID only checks at the
// paranoid level.  With -DCSRL_CONTRACTS=OFF both compile to nothing.
#ifdef CSRL_CONTRACTS_DISABLED

#define CSRL_CONTRACT(cond, context) ((void)0)
#define CSRL_CONTRACT_PARANOID(cond, context) ((void)0)
#define CSRL_CONTRACTS_ACTIVE() false

#else

#define CSRL_CONTRACT(cond, context)                                     \
  do {                                                                   \
    if (::csrl::validation::enabled() && !(cond))                        \
      ::csrl::validation::fail(__FILE__, __LINE__, #cond, (context));    \
  } while (false)

#define CSRL_CONTRACT_PARANOID(cond, context)                            \
  do {                                                                   \
    if (::csrl::validation::paranoid() && !(cond))                       \
      ::csrl::validation::fail(__FILE__, __LINE__, #cond, (context));    \
  } while (false)

/// True when contract sites are compiled in AND validation is enabled —
/// for guarding whole validation blocks (e.g. a Validator call) rather
/// than a single condition.
#define CSRL_CONTRACTS_ACTIVE() (::csrl::validation::enabled())

#endif  // CSRL_CONTRACTS_DISABLED
