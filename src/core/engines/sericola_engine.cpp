// Sericola's occupation-time recursion (sericola_engine.hpp,
// docs/ALGORITHMS.md section 3).  all_starts_points() is the whole engine:
// classify the states by reward, build every per-call table (tile member
// ranges, recursion coefficients, log-factorials), then run one
// state-local pass per jump level and accumulate the Bernstein-weighted
// sums per point.
#include "core/engines/sericola_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "ctmc/foxglynn.hpp"
#include "matrix/spmm.hpp"
#include "matrix/vector_ops.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace csrl {

namespace {

/// States grouped into reward classes: levels 0 = rho_0 < ... < rho_m with
/// class 0 always anchored at reward zero (possibly empty), as Sericola's
/// recursion requires.
struct RewardClasses {
  std::vector<double> levels;              // size m + 1
  std::vector<std::size_t> class_of;       // per state
  std::vector<std::vector<std::size_t>> members;  // per class
};

RewardClasses classify(const Mrm& model) {
  RewardClasses rc;
  rc.levels = model.distinct_rewards();
  if (rc.levels.empty() || rc.levels.front() > 0.0)
    rc.levels.insert(rc.levels.begin(), 0.0);

  rc.class_of.resize(model.num_states());
  rc.members.resize(rc.levels.size());
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    const auto it = std::lower_bound(rc.levels.begin(), rc.levels.end(),
                                     model.reward(s));
    const auto c = static_cast<std::size_t>(it - rc.levels.begin());
    rc.class_of[s] = c;
    rc.members[c].push_back(s);
  }
  return rc;
}

/// Fixed state tiles of the per-level sweep: tile t covers the states
/// [t * kStateTile, min((t + 1) * kStateTile, num_states)).  The bounds
/// depend only on the state count, never on the thread count.
constexpr std::size_t kStateTile = 1 << 12;

/// Triangular store for the per-level coefficient vectors c(h, n, k): one
/// slot per reward interval h in 1..m and jump count k in 0..N, each a
/// vector over states.  Views caller-provided storage, which it
/// zero-fills; swapping two stores just swaps the views.
class LevelStore {
 public:
  LevelStore(std::vector<double>& storage, std::size_t m, std::size_t max_n,
             std::size_t num_states)
      : stride_(max_n + 1), num_states_(num_states) {
    storage.assign(m * stride_ * num_states, 0.0);
    data_ = storage.data();
  }

  double* slot(std::size_t h, std::size_t k) {
    return data_ + ((h - 1) * stride_ + k) * num_states_;
  }
  const double* slot(std::size_t h, std::size_t k) const {
    return data_ + ((h - 1) * stride_ + k) * num_states_;
  }
  std::span<const double> span(std::size_t h, std::size_t k) const {
    return {slot(h, k), num_states_};
  }

 private:
  std::size_t stride_;
  std::size_t num_states_;
  double* data_ = nullptr;
};

/// The (t, r) bounds of the given lattice slots.
std::vector<std::pair<double, double>> live_points(
    std::span<const double> times, std::span<const double> rewards,
    std::span<const std::size_t> slots) {
  std::vector<std::pair<double, double>> points;
  points.reserve(slots.size());
  for (std::size_t slot : slots)
    points.emplace_back(times[slot / rewards.size()],
                        rewards[slot % rewards.size()]);
  return points;
}

}  // namespace

SericolaEngine::SericolaEngine(double epsilon, std::shared_ptr<ThreadPool> pool,
                               std::size_t rhs_block)
    : JointDistributionEngine(std::move(pool)),
      epsilon_(epsilon),
      rhs_block_(resolve_rhs_block(rhs_block)) {
  if (!(epsilon > 0.0 && epsilon < 1.0))
    throw ModelError("SericolaEngine: epsilon must lie in (0, 1)");
}

std::string SericolaEngine::name() const { return "sericola"; }

std::size_t SericolaEngine::truncation_depth(const Mrm& model, double t) const {
  const double lambda =
      model.chain().max_exit_rate() > 0.0 ? model.chain().max_exit_rate() : 1.0;
  return poisson_weights(lambda * t, epsilon_).right;
}

std::vector<std::vector<double>> SericolaEngine::all_starts_points(
    const Mrm& model, std::span<const std::pair<double, double>> points,
    const StateSet& target) const {
  if (model.has_impulse_rewards())
    throw ModelError(
        "SericolaEngine: occupation-time distributions are a rate-reward "
        "result ([23]); for impulse rewards use the discretisation or "
        "pseudo-Erlang engine, or the simulator");

  // Every point satisfies t > 0, 0 < r < max_reward * t (the trivial cases
  // were peeled off by the callers), hence m >= 1 and each point's reward
  // interval index h* below exists.
  const std::size_t num_states = model.num_states();
  const RewardClasses rc = classify(model);
  const std::size_t m = rc.levels.size() - 1;

  // Points sharing a horizon (same bits of t) share one Poisson window and
  // one transient accumulator — their single runs accumulate the transient
  // term identically.
  std::vector<double> horizon_times;
  std::vector<std::size_t> time_of_point(points.size());
  for (std::size_t pt = 0; pt < points.size(); ++pt) {
    const auto key = std::bit_cast<std::uint64_t>(points[pt].first);
    std::size_t idx = horizon_times.size();
    for (std::size_t q = 0; q < horizon_times.size(); ++q) {
      if (std::bit_cast<std::uint64_t>(horizon_times[q]) == key) {
        idx = q;
        break;
      }
    }
    // lint:allow hot-alloc (horizon dedup during point preprocessing, before any series work)
    if (idx == horizon_times.size()) horizon_times.push_back(points[pt].first);
    time_of_point[pt] = idx;
  }

  // Per point: the enclosing reward interval h* and Bernstein abscissa x.
  std::vector<std::size_t> h_star(points.size(), m);
  std::vector<double> x_of(points.size(), 0.0);
  for (std::size_t pt = 0; pt < points.size(); ++pt) {
    const double t = points[pt].first;
    const double r = points[pt].second;
    for (std::size_t h = 1; h <= m; ++h) {
      if (r < rc.levels[h] * t) {
        h_star[pt] = h;
        break;
      }
    }
    const double span_h =
        (rc.levels[h_star[pt]] - rc.levels[h_star[pt] - 1]) * t;
    const double x = (r - rc.levels[h_star[pt] - 1] * t) / span_h;
    x_of[pt] = std::clamp(x, 0.0, 1.0 - 1e-16);
  }

  const double lambda =
      model.chain().max_exit_rate() > 0.0 ? model.chain().max_exit_rate() : 1.0;
  const CsrMatrix p = model.chain().uniformised_dtmc(lambda);
  std::vector<PoissonWeights> windows;
  windows.reserve(horizon_times.size());
  std::size_t max_n = 0;
  for (double t : horizon_times) {
    // lint:allow hot-alloc (per-horizon window setup into capacity reserved above, before the series loop)
    windows.push_back(poisson_weights(lambda * t, epsilon_));
    max_n = std::max(max_n, windows.back().right);
  }
  CSRL_GAUGE("p3/sericola/truncation_depth", static_cast<double>(max_n));
  CSRL_GAUGE("p3/sericola/reward_classes", static_cast<double>(m));

  // Per-call tables, all built before the level loop:
  //  * tile_begin[tile * (m + 1) + cls]: index into members[cls] of the
  //    tile's first member of class cls (members are ascending, so each
  //    tile's members of a class form one contiguous sub-range);
  //  * coef_a/coef_b[(h - 1) * (m + 1) + cls]: the recursion coefficients
  //    of class cls at reward interval h, high form for cls >= h and low
  //    form for cls < h;
  //  * log_factorial[j] = log j!, and log x, log(1 - x) per point, for the
  //    Bernstein basis C(n,k) x^k (1-x)^{n-k} in log space.
  const std::size_t num_tiles =
      std::max<std::size_t>(1, (num_states + kStateTile - 1) / kStateTile);
  std::vector<std::size_t> tile_begin((num_tiles + 1) * (m + 1));
  for (std::size_t tile = 0; tile <= num_tiles; ++tile) {
    const std::size_t first_state = std::min(tile * kStateTile, num_states);
    for (std::size_t cls = 0; cls <= m; ++cls) {
      const std::vector<std::size_t>& members = rc.members[cls];
      tile_begin[tile * (m + 1) + cls] = static_cast<std::size_t>(
          std::lower_bound(members.begin(), members.end(), first_state) -
          members.begin());
    }
  }
  std::vector<double> coef_a(m * (m + 1));
  std::vector<double> coef_b(m * (m + 1));
  for (std::size_t h = 1; h <= m; ++h) {
    const double rho_h = rc.levels[h];
    const double rho_h1 = rc.levels[h - 1];
    for (std::size_t cls = 0; cls <= m; ++cls) {
      const double rho_i = rc.levels[cls];
      const std::size_t at = (h - 1) * (m + 1) + cls;
      if (cls >= h) {
        coef_a[at] = (rho_i - rho_h) / (rho_i - rho_h1);
        coef_b[at] = (rho_h - rho_h1) / (rho_i - rho_h1);
      } else {
        coef_a[at] = (rho_h1 - rho_i) / (rho_h - rho_i);
        coef_b[at] = (rho_h - rho_h1) / (rho_h - rho_i);
      }
    }
  }
  std::vector<double> log_factorial(max_n + 1);
  for (std::size_t j = 0; j <= max_n; ++j)
    log_factorial[j] = lgamma_safe(static_cast<double>(j) + 1.0);
  std::vector<double> log_x(points.size(), 0.0);
  std::vector<double> log1m_x(points.size(), 0.0);
  for (std::size_t pt = 0; pt < points.size(); ++pt) {
    if (x_of[pt] == 0.0) continue;  // basis is the k = 0 indicator
    log_x[pt] = std::log(x_of[pt]);
    log1m_x[pt] = std::log1p(-x_of[pt]);
  }

  // c(h, n, k) vectors for the current and previous jump count n, plus the
  // cache of products P * c(h, n-1, k) both sweeps consume.
  std::vector<double> current_store;
  std::vector<double> previous_store;
  std::vector<double> products_store;
  LevelStore current(current_store, m, max_n, num_states);
  LevelStore previous(previous_store, m, max_n, num_states);
  LevelStore products(products_store, m, max_n, num_states);

  // Block buffers for the grouped coefficient products (empty when
  // blocking is off).
  std::vector<double> x_block(rhs_block_ > 1 ? num_states * rhs_block_ : 0);
  std::vector<double> y_block(rhs_block_ > 1 ? num_states * rhs_block_ : 0);

  std::vector<double> u = target.indicator();  // u = P^n v
  std::vector<double> scratch(num_states, 0.0);
  std::vector<std::vector<double>> transient(
      horizon_times.size(), std::vector<double>(num_states, 0.0));
  std::vector<std::vector<double>> exceed(
      points.size(), std::vector<double>(num_states, 0.0));

  // Run `tile_fn(tile)` for every state tile: one fork-join over the
  // tiles, or a plain call when the states fit one tile.  Each tile writes
  // only its own states.
  ThreadPool& workers = pool();
  const auto for_each_tile = [&](const auto& tile_fn) {
    if (num_tiles == 1) {
      tile_fn(0);
      return;
    }
    workers.parallel_for(0, num_tiles, 1,
                         [&](std::size_t tile_lo, std::size_t tile_hi) {
                           for (std::size_t tile = tile_lo; tile < tile_hi;
                                ++tile)
                             tile_fn(tile);
                         });
  };
  const auto tile_rows = [&](std::size_t tile) {
    return std::pair{tile * kStateTile,
                     std::min((tile + 1) * kStateTile, num_states)};
  };

  // Within level n the recursion is state-local: c(h, n, k)[i] reads only
  // state i's own slots, u[i] and the products computed before the sweeps.
  // So each tile runs both whole sweeps over its own members, and every
  // state's value comes from the same expressions in the same (h, k)
  // order as a serial sweep — bit-identical at any thread count.
  const auto sweep_tile = [&](std::size_t tile, std::size_t n) {
    const std::size_t* begin = &tile_begin[tile * (m + 1)];
    const std::size_t* end = begin + (m + 1);
    // High sweep: rows with rho(i) >= rho_h, h ascending, k ascending.
    for (std::size_t h = 1; h <= m; ++h) {
      for (std::size_t k = 0; k <= n; ++k) {
        double* c = current.slot(h, k);
        for (std::size_t cls = h; cls <= m; ++cls) {
          const std::size_t* members = rc.members[cls].data();
          if (k == 0) {
            const double* base = h == 1 ? u.data() : current.slot(h - 1, n);
            for (std::size_t idx = begin[cls]; idx < end[cls]; ++idx)
              c[members[idx]] = base[members[idx]];
            continue;
          }
          const double a = coef_a[(h - 1) * (m + 1) + cls];
          const double b = coef_b[(h - 1) * (m + 1) + cls];
          const double* c_prev = current.slot(h, k - 1);
          const double* prod = products.slot(h, k - 1);
          for (std::size_t idx = begin[cls]; idx < end[cls]; ++idx) {
            const std::size_t i = members[idx];
            c[i] = a * c_prev[i] + b * prod[i];
          }
        }
      }
    }
    // Low sweep: rows with rho(i) <= rho_{h-1}, h descending, k descending.
    for (std::size_t h = m; h >= 1; --h) {
      for (std::size_t k = n + 1; k-- > 0;) {
        double* c = current.slot(h, k);
        for (std::size_t cls = 0; cls < h; ++cls) {
          const std::size_t* members = rc.members[cls].data();
          if (k == n) {
            const double* base = h == m ? nullptr : current.slot(h + 1, 0);
            for (std::size_t idx = begin[cls]; idx < end[cls]; ++idx)
              c[members[idx]] = base == nullptr ? 0.0 : base[members[idx]];
            continue;
          }
          const double a = coef_a[(h - 1) * (m + 1) + cls];
          const double b = coef_b[(h - 1) * (m + 1) + cls];
          const double* c_next = current.slot(h, k + 1);
          const double* prod = products.slot(h, k);
          for (std::size_t idx = begin[cls]; idx < end[cls]; ++idx) {
            const std::size_t i = members[idx];
            c[i] = a * c_next[i] + b * prod[i];
          }
        }
      }
    }
  };

  // Every table and buffer above is in place: the level loop itself must
  // not touch the heap.
  for (std::size_t n = 0; n <= max_n; ++n) {
    CSRL_SPAN("p3/sericola/column_sweep");
    CSRL_COUNT("p3/sericola/jump_levels", 1);
    CSRL_HIST_SCOPE("latency/p3_sweep");
    if (n > 0) {
      // lint:allow spmm-blocking (single power iterate, no batch to block)
      p.multiply(u, scratch);
      u.swap(scratch);
      const std::size_t num_products = m * n;
      if (rhs_block_ > 1 && num_products > 1) {
        // The m * n products P * c(h, n-1, k) share the matrix, so group
        // them into row-major blocks of at most rhs_block_ lanes and
        // stream P once per group (matrix/spmm.cpp) instead of once per
        // vector.  Pack/unpack are exact element copies and the block
        // kernel gathers each lane in the one-RHS column order, so the
        // products are bitwise those of the looped multiply; the kernel
        // parallelises over nnz-balanced row chunks internally.
        for (std::size_t f0 = 0; f0 < num_products; f0 += rhs_block_) {
          const std::size_t width = std::min(rhs_block_, num_products - f0);
          const double* in_cols[kMaxRhsBlock];
          double* out_cols[kMaxRhsBlock];
          for (std::size_t b = 0; b < width; ++b) {
            const std::size_t h = 1 + (f0 + b) / n;
            const std::size_t k = (f0 + b) % n;
            in_cols[b] = previous.slot(h, k);
            out_cols[b] = products.slot(h, k);
          }
          for_each_tile([&](std::size_t tile) {
            const auto [lo, hi] = tile_rows(tile);
            pack_block({in_cols, width}, x_block, lo, hi, width);
          });
          p.multiply_block(x_block, y_block, width, width);
          for_each_tile([&](std::size_t tile) {
            const auto [lo, hi] = tile_rows(tile);
            unpack_block(y_block, {out_cols, width}, lo, hi, width);
          });
        }
      } else {
        // One-RHS fallback (rhs_block == 1): the products are independent
        // SpMVs; spread them over the pool (each multiply then runs
        // inline in its worker).
        workers.parallel_for(
            0, num_products, 1,
            [&](std::size_t flat_begin, std::size_t flat_end) {
              for (std::size_t f = flat_begin; f < flat_end; ++f) {
                const std::size_t h = 1 + f / n;
                const std::size_t k = f % n;
                std::span<double> out{products.slot(h, k), num_states};
                // lint:allow spmm-blocking (width-1 fallback of the blocked path)
                p.multiply(previous.span(h, k), out);
              }
            });
      }
    }

    for_each_tile([&](std::size_t tile) { sweep_tile(tile, n); });

    // A point's single run executes its accumulation for every n up to its
    // own window's right bound (including zero-weight steps below the
    // window, whose axpy leaves the accumulator bit-unchanged) and never
    // beyond it — mirror that exactly.
    for (std::size_t h = 0; h < horizon_times.size(); ++h) {
      if (n > windows[h].right) continue;
      axpy(windows[h].weight(n), u, transient[h]);
    }
    for (std::size_t pt = 0; pt < points.size(); ++pt) {
      const PoissonWeights& window = windows[time_of_point[pt]];
      if (n > window.right) continue;
      const double w = window.weight(n);
      if (w > 0.0) {
        for (std::size_t k = 0; k <= n; ++k) {
          // C(n,k) x^k (1-x)^{n-k}, evaluated in log space.
          double basis = k == 0 ? 1.0 : 0.0;
          if (x_of[pt] != 0.0)
            basis = std::exp(
                ((log_factorial[n] - log_factorial[k]) - log_factorial[n - k]) +
                static_cast<double>(k) * log_x[pt] +
                static_cast<double>(n - k) * log1m_x[pt]);
          if (basis > 0.0)
            axpy(w * basis, current.span(h_star[pt], k), exceed[pt]);
        }
      }
    }

    std::swap(current, previous);
  }

  std::vector<std::vector<double>> results(points.size());
  for (std::size_t pt = 0; pt < points.size(); ++pt) {
    const std::vector<double>& tr = transient[time_of_point[pt]];
    results[pt].assign(num_states, 0.0);
    for (std::size_t i = 0; i < num_states; ++i)
      results[pt][i] = std::clamp(tr[i] - exceed[pt][i], 0.0, 1.0);
  }
  return results;
}

std::vector<std::vector<double>> SericolaEngine::joint_probability_all_starts_grid(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target) const {
  std::vector<std::vector<double>> grid;
  const std::vector<std::size_t> live_slot =
      peel_trivial_cells(model, times, rewards, target, grid);
  if (!live_slot.empty()) {
    CSRL_SPAN("p3/sericola/all_starts_grid");
    std::vector<std::vector<double>> computed = all_starts_points(
        model, live_points(times, rewards, live_slot), target);
    for (std::size_t k = 0; k < live_slot.size(); ++k)
      grid[live_slot[k]] = std::move(computed[k]);
  }
  validate_grid(model, times, rewards, target, grid, 2.0 * epsilon_ + 1e-12);
  return grid;
}

}  // namespace csrl
