// Ordinary lumpability (Markov bisimulation) for Markov reward models.
//
// Two states are bisimilar if they carry the same atomic propositions and
// reward rate and have, for every equivalence class C, the same total rate
// into C (with agreeing impulse rewards).  The quotient chain is again an
// MRM, and because the joint process (X_t, Y_t) of the paper's Section 4
// factors through the partition, every CSRL measure computed on the
// quotient equals the measure on the original model (the CSL analogue is
// classic; rate-reward equality extends it to the reward dimension).
//
// Lumping is *the* enabler for checking models with symmetric structure:
// k identical components produce ~2^k markings but only ~k+1 blocks.
// bench_ablation_lumping quantifies the effect.
//
// The refiner is signature-based (DESIGN.md section 3j): each dirty state
// gathers its (block, impulse, rate) outflow signature into a flat arena
// slot, signatures are hashed and compared exactly, and only blocks whose
// members' successors moved are revisited (predecessor-driven dirtying
// over the transposed rate matrix).  The signature pass runs on the shared
// ThreadPool; splitting is sequential and ordered, so block_of is bitwise
// identical at any thread count.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "mrm/mrm.hpp"

namespace csrl {

/// Work accounting of one lump() run, surfaced through the RunReport's
/// "lumping" section and the deterministic lump/* counters.
struct LumpingStats {
  /// Refinement sweeps until the partition stabilised (>= 1 on any
  /// non-empty model: the first sweep signs every state).
  std::size_t sweeps = 0;
  /// Blocks created beyond the initial (labels, reward) partition.
  std::size_t splits = 0;
  /// Signature computations across all sweeps (re-signed states counted
  /// once per sweep that touched them).
  std::size_t states_resigned = 0;
  /// Outflow entries gathered by those computations (the refiner's true
  /// work measure: one per transition of each re-signed state).
  std::size_t signature_entries = 0;
  /// Wall-clock of the whole lump() call.
  double wall_seconds = 0.0;
};

/// Quotient model plus the projection onto it.
struct LumpingResult {
  Mrm quotient;
  /// block_of[s] is the quotient state of original state s.
  std::vector<std::size_t> block_of;
  std::size_t num_blocks = 0;
  LumpingStats stats;
};

/// Compute the coarsest lumpable partition refining (labels, reward) and
/// build the quotient.  The quotient's initial distribution aggregates the
/// original one.  Throws ModelError if impulse rewards prevent an exact
/// quotient (two arcs with different impulses from one state into the same
/// block cannot be merged into a single quotient arc).
///
/// The partition is deliberately *self-loop preserving*: states must also
/// agree on their flow into their own block (kept as a self-loop of the
/// quotient).  A plain Markov-lumping quotient may erase intra-block jumps
/// that the CSRL next operator can observe; requiring agreement keeps
/// every operator of the logic exact at the cost of occasionally missing a
/// coarser partition.
LumpingResult lump(const Mrm& model);

/// Resolve the CheckOptions::lump knob: an explicit value wins; unset
/// falls back to the CSRL_LUMP environment variable ("0" or "1"), else
/// off.  A malformed environment value warns on stderr and falls back
/// to off instead of throwing — lumping is a transparent optimisation
/// and a typo in the environment must never turn a correct run into an
/// error.
bool resolve_lump(std::optional<bool> requested) noexcept;

}  // namespace csrl
