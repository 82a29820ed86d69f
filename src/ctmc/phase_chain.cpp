#include "ctmc/phase_chain.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "ctmc/foxglynn.hpp"
#include "util/error.hpp"

namespace csrl {

namespace {

/// Tail mass of the phase-jump windows.
constexpr double kJumpEpsilon = 1e-12;

bool band_key_less(const PhaseBand& a, const PhaseBand& b) {
  if (a.source != b.source) return a.source < b.source;
  if (a.shift != b.shift) return a.shift < b.shift;
  return a.lo < b.lo;
}

/// Sort one state's bands by (source, shift, lo) and merge lane-adjacent
/// bands of equal key and coefficient, appending the result to `out`.
void append_coalesced(std::vector<PhaseBand>& bands,
                      std::vector<PhaseBand>& out) {
  std::sort(bands.begin(), bands.end(), band_key_less);
  const std::size_t first = out.size();
  for (const PhaseBand& band : bands) {
    if (out.size() > first) {
      PhaseBand& last = out.back();
      if (last.source == band.source && last.shift == band.shift &&
          last.hi == band.lo && last.coef == band.coef) {
        last.hi = band.hi;
        continue;
      }
    }
    out.push_back(band);
  }
}

/// One state's rows of the explicit expansion, replayed without building
/// it (see the file comment of phase_chain.hpp).
class ExpandedRows {
 public:
  ExpandedRows(const Ctmc& base, const CsrMatrix& jump_means, std::size_t s,
               double advance, std::size_t phases)
      : row_(base.rates().row(s)),
        s_(s),
        advance_(advance),
        k_(phases),
        sink_(base.num_states() * phases) {
    means_.reserve(row_.size());
    for (const CsrEntry& e : row_) {
      const double mu = jump_means.nnz() == 0 ? 0.0 : jump_means.at(s, e.col);
      means_.push_back(mu);
      if (mu != 0.0) {
        windows_.push_back(poisson_weights(mu, kJumpEpsilon));
        jumps_ = true;
      }
    }
  }

  /// True if some transition of the state crosses phases.
  bool jumps() const { return jumps_; }

  /// The merged row of expanded state (s, lane): the triplets of the
  /// explicit expansion in its insertion order, zero values dropped,
  /// sorted by column with std::sort and duplicates summed front to back
  /// — CsrBuilder::build step for step, so every merged value carries
  /// the same bits.
  const std::vector<CsrEntry>& row(std::size_t lane) {
    triplets_.clear();
    const auto add = [&](std::size_t col, double value) {
      if (value != 0.0) triplets_.push_back({col, value});
    };
    std::size_t window = 0;
    for (std::size_t idx = 0; idx < row_.size(); ++idx) {
      const CsrEntry& e = row_[idx];
      if (means_[idx] == 0.0) {
        add(e.col * k_ + lane, e.value);
        continue;
      }
      const PoissonWeights& jumps = windows_[window++];
      double mass_within = 0.0;
      for (std::size_t j = jumps.left; j <= jumps.right && lane + j < k_;
           ++j) {
        add(e.col * k_ + lane + j, e.value * jumps.weight(j));
        mass_within += jumps.weight(j);
      }
      const double spill = e.value * (1.0 - mass_within);
      if (spill > 0.0) add(sink_, spill);
    }
    if (advance_ > 0.0)
      add(lane + 1 < k_ ? s_ * k_ + lane + 1 : sink_, advance_);

    std::sort(triplets_.begin(), triplets_.end(),
              [](const CsrEntry& a, const CsrEntry& b) { return a.col < b.col; });
    merged_.clear();
    for (const CsrEntry& t : triplets_) {
      if (!merged_.empty() && merged_.back().col == t.col)
        merged_.back().value += t.value;
      else
        merged_.push_back(t);
    }
    return merged_;
  }

 private:
  std::span<const CsrEntry> row_;
  std::size_t s_;
  double advance_;
  std::size_t k_;
  std::size_t sink_;
  std::vector<double> means_;
  std::vector<PoissonWeights> windows_;
  bool jumps_ = false;
  std::vector<CsrEntry> triplets_;
  std::vector<CsrEntry> merged_;
};

}  // namespace

PhaseChain::PhaseChain(const Ctmc& base, std::span<const double> advance,
                       const CsrMatrix& jump_means, std::size_t phases)
    : phases_(phases) {
  const std::size_t n = base.num_states();
  const std::size_t k = phases;
  if (k == 0) throw ModelError("PhaseChain: the number of phases must be positive");
  // Lanes are numbered s * k + i with the sink at n * k: all of them must
  // fit in a std::size_t.
  if (n > 0 && k > (std::numeric_limits<std::size_t>::max() - 1) / n)
    throw ModelError("PhaseChain: " + std::to_string(n) + " states x " +
                     std::to_string(k) + " phases overflow the lane count");
  if (advance.size() != n)
    throw ModelError("PhaseChain: one advance rate per state required");
  if (jump_means.nnz() > 0 && (jump_means.rows() != n || jump_means.cols() != n))
    throw ModelError("PhaseChain: jump-mean matrix shape mismatch");
  for (double a : advance)
    if (!(a >= 0.0) || !std::isfinite(a))
      throw ModelError("PhaseChain: advance rates must be finite and >= 0");

  row_ptr_.reserve(n + 1);
  exit_ptr_.reserve(n + 1);
  std::vector<PhaseBand> bands;
  for (std::size_t s = 0; s < n; ++s) {
    ExpandedRows rows(base, jump_means, s, advance[s], k);
    bands.clear();
    const std::size_t runs_begin = exit_runs_.size();
    // Lane groups sharing one row up to the shift: all lanes but the last
    // for a state without jumps (k > 1), the last alone, or every lane by
    // itself once jumps make the window truncation lane-dependent.
    const auto emit = [&](std::size_t lane, std::size_t lo, std::size_t hi) {
      double exit_rate = 0.0;
      for (const CsrEntry& e : rows.row(lane)) {
        exit_rate += e.value;  // CsrMatrix::row_sums order
        if (e.col < n * k)
          bands.push_back({e.col / k, e.col % k - lane, lo, hi, e.value});
      }
      max_exit_rate_ = std::max(max_exit_rate_, exit_rate);
      if (exit_runs_.size() > runs_begin &&
          exit_runs_.back().value == exit_rate)
        exit_runs_.back().hi = hi;
      else
        exit_runs_.push_back({lo, hi, exit_rate});
    };
    if (rows.jumps()) {
      for (std::size_t i = 0; i < k; ++i) emit(i, i, i + 1);
    } else {
      if (k > 1) emit(0, 0, k - 1);
      emit(k - 1, k - 1, k);
    }
    append_coalesced(bands, rate_bands_);
    row_ptr_.push_back(rate_bands_.size());
    exit_ptr_.push_back(exit_runs_.size());
  }
}

PhaseOperator PhaseChain::uniformised(double lambda) const {
  if (!(lambda > 0.0))
    throw ModelError("PhaseChain::uniformised: lambda must be positive");
  if (lambda < max_exit_rate_ * (1.0 - 1e-12))
    throw ModelError("PhaseChain::uniformised: lambda below max exit rate");
  const std::size_t n = num_states();
  const std::size_t k = phases_;
  std::vector<std::size_t> row_ptr;
  row_ptr.reserve(n + 1);
  row_ptr.push_back(0);
  std::vector<PhaseBand> bands;
  bands.reserve(rate_bands_.size() + n);
  std::vector<double> diag(k);
  std::vector<PhaseBand> diag_bands;
  for (std::size_t s = 0; s < n; ++s) {
    // Diagonal per lane: the rate entry at (s, i), if any, over lambda
    // plus the self-loop complement 1 - E/lambda when positive — the
    // two triplets Ctmc::uniformised_dtmc merges at (s, s).
    std::fill(diag.begin(), diag.end(), 0.0);
    for (std::size_t b = row_ptr_[s]; b < row_ptr_[s + 1]; ++b) {
      const PhaseBand& band = rate_bands_[b];
      if (band.source == s && band.shift == 0)
        for (std::size_t i = band.lo; i < band.hi; ++i)
          diag[i] = band.coef / lambda;
    }
    for (std::size_t r = exit_ptr_[s]; r < exit_ptr_[s + 1]; ++r) {
      const double self = 1.0 - exit_runs_[r].value / lambda;
      if (self > 0.0)
        for (std::size_t i = exit_runs_[r].lo; i < exit_runs_[r].hi; ++i)
          diag[i] = diag[i] + self;
    }
    diag_bands.clear();
    for (std::size_t i = 0; i < k; ++i) {
      if (diag[i] == 0.0) continue;  // nothing stored at (s, s)
      if (!diag_bands.empty() && diag_bands.back().hi == i &&
          diag_bands.back().coef == diag[i])
        diag_bands.back().hi = i + 1;
      else
        diag_bands.push_back({s, 0, i, i + 1, diag[i]});
    }

    bool diag_done = false;
    const auto flush_diag = [&] {
      if (diag_done) return;
      bands.insert(bands.end(), diag_bands.begin(), diag_bands.end());
      diag_done = true;
    };
    for (std::size_t b = row_ptr_[s]; b < row_ptr_[s + 1]; ++b) {
      const PhaseBand& band = rate_bands_[b];
      if (band.source > s || (band.source == s && band.shift >= 1))
        flush_diag();
      if (band.source == s && band.shift == 0) continue;  // in the diagonal
      PhaseBand scaled = band;
      scaled.coef = band.coef / lambda;
      bands.push_back(scaled);
    }
    flush_diag();
    row_ptr.push_back(bands.size());
  }
  return PhaseOperator(k, std::move(row_ptr), std::move(bands));
}

}  // namespace csrl
