// Blocked multi-RHS SpMM support: block-width resolution and row-major
// block packing.
//
// The kernels themselves are CsrMatrix members (declared in
// matrix/csr.hpp, defined in matrix/spmm.cpp).  This header holds the
// shared plumbing around them:
//
//  * resolve_rhs_block() turns the TransientOptions::rhs_block /
//    CheckOptions knob into an effective block width, honouring the
//    CSRL_RHS_BLOCK environment variable;
//  * pack_block()/unpack_block() convert between the engines' natural
//    one-vector-per-column storage and the kernels' row-major
//    interleaved blocks (X[i * stride + b] = column b, element i).
//
// Packing is an exact element copy, so routing a sweep through
// pack -> multiply_block -> unpack changes no bits relative to looping
// multiply() over the columns.
#pragma once

#include <cstddef>
#include <span>

namespace csrl {

/// Hard upper bound on the block width.  Keeps one row's lane group
/// (kMaxRhsBlock doubles) inside a handful of cache lines and bounds the
/// stack footprint of the kernel's per-lane accumulators.
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

/// Gather `cols.size()` state-indexed columns into the row-major block:
/// block[i * stride + b] = cols[b][i] for i in [row_begin, row_end).
/// Row-range form so engines can spread the copy over a pool (disjoint
/// ranges write disjoint block rows).
void pack_block(std::span<const double* const> cols, std::span<double> block,
                std::size_t row_begin, std::size_t row_end,
                std::size_t stride);

/// Scatter the row-major block back into columns:
/// cols[b][i] = block[i * stride + b] for i in [row_begin, row_end).
void unpack_block(std::span<const double> block,
                  std::span<double* const> cols, std::size_t row_begin,
                  std::size_t row_end, std::size_t stride);

}  // namespace csrl
