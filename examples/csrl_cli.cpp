// csrl_cli — check a CSRL formula against a model stored in the explicit
// file format (see src/io/explicit_format.hpp).
//
//   usage: csrl_cli <model-prefix> <formula> [options]
//     --engine sericola|erlang|discretisation   P3 engine (default sericola)
//     --epsilon <e>                             Sericola truncation bound
//     --phases <k>                              Erlang order
//     --step <d>                                discretisation step
//     --all-states                              print the value per state
//     --diagnose                                print model diagnostics
//     --lump                                    check on the bisimulation
//                                               quotient (same answers)
//
//   A numeric option must be a whole token: a finite number for --epsilon
//   and --step, decimal digits alone for --phases.  Anything else prints
//   the usage line and exits with status 2.
//
//   example:
//     csrl_cli /tmp/adhoc "P=? [ (Call_Idle | Doze) U[0,24]{0,600} Call_Initiated ]"
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string>

#include "core/checker.hpp"
#include "io/explicit_format.hpp"
#include "logic/parser.hpp"
#include "mrm/diagnostics.hpp"
#include "mrm/lumping.hpp"
#include "util/error.hpp"
#include "obs/obs.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: csrl_cli <model-prefix> <formula> [--engine "
               "sericola|erlang|discretisation] [--epsilon e] [--phases k] "
               "[--step d] [--all-states] [--diagnose] [--lump]\n");
  return 2;
}

/// The whole of `token` as a finite double; false on an empty token,
/// trailing characters, a value out of range or a non-finite value.
bool parse_real(const char* token, double& out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(token, &end);
  if (end == token || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value))
    return false;
  out = value;
  return true;
}

/// The whole of `token` as a count of decimal digits; false on a sign,
/// leading space, trailing characters or a value out of range.
bool parse_count(const char* token, std::size_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(token[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token, &end, 10);
  if (*end != '\0' || errno == ERANGE ||
      value > std::numeric_limits<std::size_t>::max())
    return false;
  out = static_cast<std::size_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csrl;
  if (argc < 3) return usage();
  const std::string prefix = argv[1];
  const std::string formula_text = argv[2];

  CheckOptions options;
  bool all_states = false;
  bool want_diagnose = false;
  bool want_lump = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--engine") {
      const std::string engine = next();
      if (engine == "sericola")
        options.engine = P3Engine::kSericola;
      else if (engine == "erlang")
        options.engine = P3Engine::kErlang;
      else if (engine == "discretisation")
        options.engine = P3Engine::kDiscretisation;
      else
        return usage();
    } else if (arg == "--epsilon") {
      if (!parse_real(next(), options.sericola_epsilon)) return usage();
    } else if (arg == "--phases") {
      if (!parse_count(next(), options.erlang_phases)) return usage();
    } else if (arg == "--step") {
      if (!parse_real(next(), options.discretisation_step)) return usage();
    } else if (arg == "--all-states") {
      all_states = true;
    } else if (arg == "--diagnose") {
      want_diagnose = true;
    } else if (arg == "--lump") {
      want_lump = true;
    } else {
      return usage();
    }
  }

  try {
    WallTimer load_timer;
    Mrm model = load_mrm(prefix);
    std::printf("model '%s': %zu states, %zu transitions (%.3f s)\n",
                prefix.c_str(), model.num_states(), model.rates().nnz(),
                load_timer.seconds());

    if (want_diagnose) std::printf("%s", diagnose(model).summary().c_str());

    const std::size_t init = model.initial_state();
    std::vector<std::size_t> block_of;
    if (want_lump) {
      LumpingResult lumped = lump(model);
      std::printf("lumped: %zu states -> %zu blocks\n", model.num_states(),
                  lumped.num_blocks);
      block_of = std::move(lumped.block_of);
      model = std::move(lumped.quotient);
    }

    const FormulaPtr formula = parse_formula(formula_text);
    std::printf("formula: %s\n", formula->to_string().c_str());

    const Checker checker(model, options);
    WallTimer check_timer;
    std::vector<double> values = checker.values(*formula);
    const double seconds = check_timer.seconds();

    if (!block_of.empty()) {
      // Pull the quotient values back to the original state space.
      std::vector<double> pulled(block_of.size(), 0.0);
      for (std::size_t s = 0; s < block_of.size(); ++s)
        pulled[s] = values[block_of[s]];
      values = std::move(pulled);
    }
    if (all_states) {
      for (std::size_t s = 0; s < values.size(); ++s)
        std::printf("  state %zu: %.10f\n", s, values[s]);
    }
    if (formula->kind() == FormulaKind::kProb && formula->is_query()) {
      std::printf("P=? at initial state %zu: %.10f\n", init, values[init]);
    } else if (formula->kind() == FormulaKind::kSteady && formula->is_query()) {
      std::printf("S=? at initial state %zu: %.10f\n", init, values[init]);
    } else if (formula->kind() == FormulaKind::kReward && formula->is_query()) {
      std::printf("R=? at initial state %zu: %.10f\n", init, values[init]);
    } else {
      std::printf("initial state %zu: %s\n", init,
                  values[init] != 0.0 ? "SATISFIED" : "NOT satisfied");
    }
    std::printf("checked in %.3f s\n", seconds);
    return 0;
  } catch (const SyntaxError& e) {
    std::fprintf(stderr, "syntax error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Every other csrl::Error, and the standard library's own failures.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
