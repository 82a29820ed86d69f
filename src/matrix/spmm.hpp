// The rhs_block knob: the width of the blocked Poisson accumulators that
// ride the uniformisation sweeps (ctmc/uniformisation.cpp).
//
// The lane-product kernels themselves are CsrMatrix members (declared in
// matrix/csr.hpp, defined in matrix/spmm.cpp); they read and write the
// lanes in place and take no width from this knob.
#pragma once

#include <cstddef>
#include <span>

namespace csrl {

/// Hard upper bound on the rhs_block width.
inline constexpr std::size_t kMaxRhsBlock = 64;

/// Default effective block width when neither the option nor the
/// environment picks one.  Chosen by bench_spmm: width 8 saturates the
/// single-stream win on the bench hosts while keeping the packed blocks
/// small (see BENCH_spmm.json trajectories).
inline constexpr std::size_t kDefaultRhsBlock = 8;

/// Resolve the `rhs_block` knob (TransientOptions::rhs_block, reached
/// through CheckOptions::transient) to an effective width in
/// [1, kMaxRhsBlock].  Same pattern as num_threads: `requested` == 0
/// means automatic — the CSRL_RHS_BLOCK environment variable if set,
/// else kDefaultRhsBlock; an explicit value wins over the environment.
/// Width 1 disables blocking (every consumer falls back to the one-RHS
/// path).  Throws ModelError for a requested or environment value of 0
/// or above kMaxRhsBlock, or an unparseable environment value.
std::size_t resolve_rhs_block(std::size_t requested);

}  // namespace csrl
