// Synthetic model generators for tests, examples and benches.
#pragma once

#include <cstdint>

#include "mrm/mrm.hpp"

namespace csrl {

/// Birth-death chain on {0, ..., n-1} with constant birth/death rates.
/// Reward of state i is i (e.g. "jobs in service").  Labels: "empty" on
/// state 0, "full" on state n-1.
Mrm birth_death_mrm(std::size_t num_states, double birth_rate,
                    double death_rate);

/// Two M/M/1 queues in tandem with finite capacities; arrivals `lambda`,
/// service rates `mu1`, `mu2`.  Arrivals and stage-1 completions are lost
/// when the target queue is full.  Reward: total number of jobs in the
/// system (holding cost).  Labels: "empty", "full1", "full2", "blocked"
/// (both full).
Mrm tandem_queue_mrm(std::size_t capacity1, std::size_t capacity2,
                     double lambda, double mu1, double mu2);

/// `machines` independent identical fail/repair components; the state is
/// the set of operational machines (2^machines states), the reward the
/// number of operational ones.  Labels: "all_up", "all_down".  The model
/// is fully symmetric, so lumping collapses it to machines+1 blocks — the
/// showcase workload of bench_ablation_lumping.
Mrm independent_machines_mrm(std::size_t machines, double failure_rate,
                             double repair_rate);

/// Pseudo-random MRM for property-based tests: `num_states` states, each
/// non-final state gets 1 + ~density*(n-1) outgoing transitions with rates
/// in (0, max_rate]; rewards are integers in {0, ..., max_reward} (integer
/// so the discretisation engine applies); every state is labelled with a
/// random subset of {"a", "b"}; state 0 is initial.  Deterministic in
/// `seed`.
Mrm random_mrm(std::uint64_t seed, std::size_t num_states, double density,
               double max_rate = 4.0, std::uint32_t max_reward = 3);

/// `clones` disjoint copies of `base` glued into one MRM: state (c, s)
/// is index c * base.num_states() + s, transitions (rates and impulses)
/// stay within a clone, rewards and labels are copied, and the initial
/// mass is split equally over the clones.  Every clone copy of a state
/// is ordinarily lumpable with its siblings, and because transitions
/// never cross clones each copy's CSR row equals the base row entry for
/// entry — the workhorse model of the lumping differential tests, where
/// it makes quotient-vs-full comparisons tight to FP noise rather than
/// engine truncation.  Use a power-of-two clone count so the 1/clones
/// initial masses are exact.
Mrm replicated_mrm(const Mrm& base, std::size_t clones);

}  // namespace csrl
