// Section 5.3 of the paper: properties Q1-Q3 checked end to end on the
// 9-state ad hoc station model (SRN -> reachability graph -> CSRL checker).
// Q1 exercises the P2 pipeline (duality), Q2 the P1 pipeline
// (uniformisation), Q3 the P3 pipeline (Theorem-1 reduction + engine).
#include <cstdio>
#include <utility>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/adhoc.hpp"
#include "obs/obs.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

void print_properties() {
  const Mrm model = build_adhoc_mrm();
  const Checker checker(model);
  std::printf("=== Section 5.3: properties Q1-Q3 ===\n");
  struct Row {
    const char* name;
    const char* query;
    const char* bounded;
  };
  const Row rows[] = {
      {"Q1 (reward-bounded eventually, P2)", kQueryQ1, kPropertyQ1},
      {"Q2 (time-bounded eventually, P1)", kQueryQ2, kPropertyQ2},
      {"Q3 (time+reward until, P3)", kQueryQ3, kPropertyQ3},
  };
  for (const Row& row : rows) {
    WallTimer timer;
    const double value = checker.value_initially(*parse_formula(row.query));
    const bool verdict = checker.holds_initially(*parse_formula(row.bounded));
    std::printf("%-36s  p = %.8f  %-13s (%.2f ms)\n", row.name, value,
                verdict ? "-> HOLDS" : "-> VIOLATED", timer.seconds() * 1e3);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("case_study_properties");
  print_properties();
  const Mrm model = build_adhoc_mrm();
  const Checker checker(model);
  const std::pair<const char*, const char*> rows[] = {
      {"q1_reward_bounded_eventually", kQueryQ1},
      {"q2_time_bounded_eventually", kQueryQ2},
      {"q3_time_reward_until", kQueryQ3},
  };
  for (const auto& [label, query] : rows) {
    const FormulaPtr formula = parse_formula(query);
    obs_guard.timed_reps(label,
                         [&] { return checker.value_initially(*formula); });
  }
  return 0;
}
