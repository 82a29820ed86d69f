// Figure 2 + Table 1 of the paper: the SRN of the battery-powered mobile
// station and its rate/reward parameters.  This bench validates the
// generated state space against everything the paper states about it
// (9 recurrent states; the reduced Q3 model has 3 transient + 2 absorbing
// states) and times SRN construction, reachability-graph generation and
// the Theorem-1 reduction for Q3 (timed_reps medians).
#include <cstdio>

#include "models/adhoc.hpp"
#include "mrm/transform.hpp"
#include "srn/reachability.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

void print_model() {
  const Srn net = build_adhoc_srn();
  const ReachabilityGraph graph = explore(net);
  const Mrm& model = graph.model;

  std::printf("=== Figure 2 / Table 1: the ad hoc station SRN ===\n");
  std::printf("places: %zu, transitions: %zu\n", net.num_places(),
              net.num_transitions());
  std::printf("reachable markings: %zu (paper: nine recurrent states)\n\n",
              model.num_states());

  std::printf("state  exit-rate  reward  labels\n");
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    std::printf("%4zu   %8.2f  %6.0f  ", s, model.chain().exit_rate(s),
                model.reward(s));
    for (const auto& ap : model.labelling().labels_of(s))
      std::printf("%s ", ap.c_str());
    std::printf("%s\n", s == model.initial_state() ? " <- initial" : "");
  }

  const StateSet phi = model.labelling().states_with("Call_Idle") |
                       model.labelling().states_with("Doze");
  const StateSet psi = model.labelling().states_with("Call_Initiated");
  const UntilReduction reduction = reduce_for_until(model, phi, psi);
  std::size_t absorbing = 0;
  for (std::size_t s = 0; s < reduction.model.num_states(); ++s)
    if (reduction.model.chain().is_absorbing(s)) ++absorbing;
  std::printf("\nTheorem-1 reduction for Q3: %zu states (%zu transient, %zu "
              "absorbing; paper: 3 + 2)\n\n",
              reduction.model.num_states(),
              reduction.model.num_states() - absorbing, absorbing);
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("fig2_table1_model");
  print_model();
  obs_guard.timed_reps("build_srn",
                       [] { return build_adhoc_srn().num_transitions(); });
  obs_guard.timed_reps("explore_state_space", [] {
    const Srn net = build_adhoc_srn();
    return explore(net).model.num_states();
  });
  {
    const Mrm model = build_adhoc_mrm();
    const StateSet phi = model.labelling().states_with("Call_Idle") |
                         model.labelling().states_with("Doze");
    const StateSet psi = model.labelling().states_with("Call_Initiated");
    obs_guard.timed_reps("reduce_for_q3", [&] {
      return reduce_for_until(model, phi, psi).model.num_states();
    });
  }
  return 0;
}
