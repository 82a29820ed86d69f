// Lane operators: a matrix over n states x k lanes, stored as n rows of
// lane bands instead of an (n*k)-row CSR.  The lanes are the Erlang
// phases of a phase-expanded chain (ctmc/phase_chain.hpp, state (s, i) at
// s * k + i) or the remaining reward budgets of the Tijms-Veldman
// recursion, stored reversed (core/engines/discretisation_engine.cpp).
// Either way row (s, i) is, for nearly every lane, the same n-state row
// shifted along the lanes: a term of state s that reads state c at lane
// offset m reads x[c * k + i + m] for every lane i it applies to.  A band
// stores that term once:
//
//   y[s * k + i] += coef * x[source * k + shift + i]   for i in [lo, hi),
//
// and the kernel runs it over contiguous lanes.  On the lanes that every
// band of a state covers, [max lo, min hi), it walks 16-lane register
// tiles (the idiom of CsrMatrix::multiply_lanes_row): a tile's sums stay
// in registers while all of the state's bands stream past, then are
// stored once.  The per-state pass is compiled in two lane widths
// (matrix/simd.hpp): eight LanePair sums per tile for the build's target,
// four LaneQuad sums in the AVX2 variant, picked once per process from
// the CPU.  The other
// lanes, and every lane under CSRL_SIMD=OFF, run band by band, one
// vectorizable loop per band.  Either way each lane starts from +0.0 and
// sums its state's bands in the order given, so the tiles change which
// lanes travel together, never a lane's sum, and the code that lists the
// bands fixes the summation order: PhaseChain
// sorts them by (source, shift), the ascending column order of the
// expanded CSR row (the same bits as the CSR product over the expanded
// chain); the discretisation engine lists the self term, then the arcs
// in CSR order.  SIMD runs lanes side by side, never a reordered sum
// within one lane (matrix/simd.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "matrix/fused_step.hpp"
#include "matrix/simd.hpp"

namespace csrl {

/// One band of a phase-operator row (see file comment).
struct PhaseBand {
  std::size_t source = 0;  // state c whose lanes are read
  std::size_t shift = 0;   // lane offset m: lane i reads lane i + m
  std::size_t lo = 0;      // first lane that receives the term
  std::size_t hi = 0;      // one past the last lane
  double coef = 0.0;
};

/// Immutable band-structured operator over num_states() x phases() lanes.
class PhaseOperator {
 public:
  PhaseOperator() = default;

  /// `row_ptr` (size n + 1, non-decreasing, from 0 to bands.size())
  /// delimits each state's bands, which are summed in the order given.
  /// Every band must satisfy lo < hi, hi + shift <= phases, source < n and
  /// a finite coefficient.  Throws ModelError otherwise.
  PhaseOperator(std::size_t phases, std::vector<std::size_t> row_ptr,
                std::vector<PhaseBand> bands);

  std::size_t num_states() const { return row_ptr_.size() - 1; }
  std::size_t phases() const { return phases_; }
  /// Length of the vectors the operator acts on: num_states() * phases().
  std::size_t size() const { return num_states() * phases_; }

  /// The bands of state `s`.  Precondition: s < num_states().
  std::span<const PhaseBand> bands(std::size_t s) const {
    return {bands_.data() + row_ptr_[s], row_ptr_[s + 1] - row_ptr_[s]};
  }

  /// Fused y = A x with a phase-0 readout, the phase form of
  /// CsrMatrix::multiply_fused: the product, the deferred Poisson axpys
  /// of the previous step and the convergence predicate over every lane
  /// (returned; see kNoConvergenceScan) ride one pass.  Pendings read
  /// lane 0 only — for every state s, out[s] += weight * x[s * phases()]
  /// — so accumulators hold num_states() entries, not size().
  /// x and y have size() entries and must not alias each other or the
  /// pending targets.  States are processed in independent tiles on the
  /// shared pool once the lane work is large enough; every tile computes
  /// the same per-lane operations, so y and the verdict are bit-identical
  /// at any thread count and either lane width.  `width` names the
  /// variant to run (tests compare them); it must be available
  /// (lane_width_available), else ModelError.
  bool multiply_phase_fused(std::span<const double> x, std::span<double> y,
                            std::span<const FusedAxpy> pendings,
                            double tolerance,
                            LaneWidth width = lane_width()) const;

 private:
  std::size_t phases_ = 1;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<PhaseBand> bands_;
  /// Each state's register-tiled lanes [begin, end): whole tiles over
  /// the lanes all of its bands cover, fixed by the constructor; {0, 0}
  /// where no tile fits and for every state under CSRL_SIMD=OFF.
  std::vector<std::pair<std::size_t, std::size_t>> tiles_;
  /// Lane-band terms summed over every band (the multiply-add count of
  /// one product).
  std::size_t lane_terms_ = 0;
};

}  // namespace csrl
