// Sericola's occupation-time recursion (sericola_engine.hpp,
// docs/ALGORITHMS.md section 3).  all_starts_points() is the whole engine:
// classify the states by reward, build every per-call table (tile sweep
// order, recursion coefficients, point groups, log-factorials), then run
// one state-local pass per jump level over the state tiles and
// accumulate the Bernstein-weighted sums per point.
#include "core/engines/sericola_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/engines/bernstein_sums.hpp"
#include "ctmc/foxglynn.hpp"
#include "ctmc/uniformisation.hpp"
#include "matrix/simd.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace csrl {

namespace {

/// States grouped into reward classes: levels 0 = rho_0 < ... < rho_m with
/// class 0 always anchored at reward zero (possibly empty), as Sericola's
/// recursion requires.  Only the recursion states are listed by class.
/// An absorbing reward-0 state (the success and fail states of every
/// Theorem-1 reduction: class 0, its row of P the 1.0 self-loop) runs only
/// low sweeps, where a * (+0) + b * (1.0 * (+0)) is +0: its coefficients
/// are exactly +0 at every level, so it is left out of the recursion and
/// needs only its transient axpy.
struct RewardClasses {
  std::vector<double> levels;                     // size m + 1
  std::vector<std::size_t> class_of;              // per state
  std::vector<std::vector<std::size_t>> members;  // per class, recursion states
  std::vector<std::size_t> recursion;             // ascending
  std::vector<std::size_t> trivial;               // ascending
};

RewardClasses classify(const Mrm& model, const CsrMatrix& p) {
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
    const bool absorbing = std::ranges::all_of(
        p.row(s), [s](const CsrEntry& e) { return e.col == s; });
    if (c == 0 && absorbing) {
      rc.trivial.push_back(s);
    } else {
      rc.members[c].push_back(s);
      rc.recursion.push_back(s);
    }
  }
  return rc;
}

/// Doubles one lane-major tile scratch may hold: a tile of B states keeps
/// its product lanes and its coefficient lanes, (row lanes) x B doubles
/// each, inside L2 (2 x 256 KiB).
constexpr std::size_t kTileScratch = 1 << 15;

/// Lane of c(h, n, k) in a state's coefficient row.  Level n reads lanes
/// below m * (n + 1) only, and its products P * c(., n - 1, .) are the
/// contiguous band [0, m * n).
constexpr std::size_t lane_of(std::size_t m, std::size_t h, std::size_t k) {
  return k * m + (h - 1);
}

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

SericolaEngine::SericolaEngine(double epsilon) : epsilon_(epsilon) {
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
  // interval index h* below exists.  Class m's states earn a positive
  // reward, so at least one state recurses.
  const std::size_t num_states = model.num_states();
  const double lambda =
      model.chain().max_exit_rate() > 0.0 ? model.chain().max_exit_rate() : 1.0;
  const CsrMatrix p = model.chain().uniformised_dtmc(lambda);
  const RewardClasses rc = classify(model, p);
  const std::size_t m = rc.levels.size() - 1;
  const std::size_t num_rec = rc.recursion.size();

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
  CSRL_GAUGE("p3/sericola/recursion_states", static_cast<double>(num_rec));

  // Per-call tables, all built before the level loop:
  //  * state tiles of `tile_states` consecutive recursion states, as many
  //    as a lane-major scratch of kTileScratch doubles holds at this row
  //    width but never more than there are recursion states; sweep_order
  //    lists each tile's states by reward class (ascending index within a
  //    class), then the trivial states, and accumulators are kept by
  //    position in that order;
  //  * class_split[tile * (m + 1) + h]: the tile offset of its first
  //    state of class >= h, where its high sweeps of h start and its low
  //    sweeps of h end;
  //  * coef_a/coef_b[(h - 1) * (m + 1) + cls]: the recursion coefficients
  //    of class cls at reward interval h, high form for cls >= h and low
  //    form for cls < h;
  //  * the points grouped by reward interval: group h* owns the
  //    accumulator slots [group_begin[h*], group_begin[h* + 1]), in
  //    ascending point order;
  //  * log_factorial[j] = log j!, and log x, log(1 - x) per point, for the
  //    Bernstein basis C(n,k) x^k (1-x)^{n-k} in log space;
  //  * the per-level weight tables, refilled (never reallocated) at the
  //    top of every level.
  const std::size_t row_lanes = lane_of(m, 1, max_n + 1);
  const std::size_t tile_states = std::min(
      num_rec, std::clamp<std::size_t>(kTileScratch / row_lanes, 4, 1024));
  const std::size_t num_tiles = (num_rec + tile_states - 1) / tile_states;
  std::vector<std::size_t> sweep_order(num_states);
  std::vector<std::size_t> class_split(num_tiles * (m + 1));
  for (std::size_t tile = 0, at = 0; tile < num_tiles; ++tile) {
    const std::size_t lo = tile * tile_states;
    const std::size_t hi = std::min(lo + tile_states, num_rec);
    const std::size_t first = rc.recursion[lo];
    const std::size_t last = rc.recursion[hi - 1];
    for (std::size_t cls = 0; cls <= m; ++cls) {
      class_split[tile * (m + 1) + cls] = at - lo;
      const std::vector<std::size_t>& members = rc.members[cls];
      auto it = std::lower_bound(members.begin(), members.end(), first);
      for (; it != members.end() && *it <= last; ++it) sweep_order[at++] = *it;
    }
  }
  std::ranges::copy(rc.trivial, sweep_order.begin() + num_rec);
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
  const std::size_t num_points = points.size();
  std::vector<std::size_t> group_begin(m + 2, 0);
  for (std::size_t pt = 0; pt < num_points; ++pt) ++group_begin[h_star[pt] + 1];
  for (std::size_t h = 1; h <= m + 1; ++h) group_begin[h] += group_begin[h - 1];
  std::vector<std::size_t> slot_point(num_points);
  std::vector<std::size_t> slot_of(num_points);
  {
    std::vector<std::size_t> next_slot(group_begin.begin(), group_begin.end() - 1);
    for (std::size_t pt = 0; pt < num_points; ++pt) {
      slot_of[pt] = next_slot[h_star[pt]]++;
      slot_point[slot_of[pt]] = pt;
    }
  }
  std::vector<double> log_factorial(max_n + 1);
  for (std::size_t j = 0; j <= max_n; ++j)
    log_factorial[j] = lgamma_safe(static_cast<double>(j) + 1.0);
  std::vector<double> log_x(num_points, 0.0);
  std::vector<double> log1m_x(num_points, 0.0);
  for (std::size_t pt = 0; pt < num_points; ++pt) {
    if (x_of[pt] == 0.0) continue;  // basis is the k = 0 indicator
    log_x[pt] = std::log(x_of[pt]);
    log1m_x[pt] = std::log1p(-x_of[pt]);
  }
  // Level n's Bernstein terms: term_weight[k * P + slot] = w_n * basis,
  // and term_live[k * P + slot] = 1 exactly where the point's single run
  // adds that term (n inside its window, w_n > 0, basis > 0).
  // horizon_weight/live carry the transient axpys.
  std::vector<double> term_weight((max_n + 1) * num_points, 0.0);
  std::vector<unsigned char> term_live((max_n + 1) * num_points, 0);
  std::vector<double> horizon_weight(horizon_times.size(), 0.0);
  std::vector<unsigned char> horizon_live(horizon_times.size(), 0);

  // State-major coefficient rows for the current and previous jump count
  // (lane_of), read in place by the lane products; a trivial state's rows
  // stay +0.  Accumulators are kept by sweep position: transient[h][pos]
  // per horizon, exceed[slot * num_rec + pos] per point (a trivial
  // state's exceed is +0).
  std::vector<double> current_rows(num_states * row_lanes, 0.0);
  std::vector<double> previous_rows(num_states * row_lanes, 0.0);
  double* current = current_rows.data();
  double* previous = previous_rows.data();
  std::vector<double> u = target.indicator();  // u = P^n v
  std::vector<double> next_u(num_states, 0.0);
  std::vector<std::vector<double>> transient(
      horizon_times.size(), std::vector<double>(num_states, 0.0));
  std::vector<double> exceed(num_points * num_rec, 0.0);

  // One lane-major scratch per pool lane: a tile's products and
  // coefficients with lane l of its j-th state at [l * tile_states + j],
  // plus its per-state recursion coefficients (a, b) per reward interval.
  const ThreadPool& workers = ThreadPool::global();
  const std::size_t scratch_lanes = std::min(workers.num_threads(), num_tiles);
  const std::size_t scratch_size = (2 * row_lanes + 2 * m + 1) * tile_states;
  std::vector<double> scratch(scratch_lanes * scratch_size, 0.0);

  const BernsteinTerms terms{m,
                             group_begin.data(),
                             num_points,
                             term_weight.data(),
                             term_live.data(),
                             exceed.data(),
                             num_rec};

  // One tile's share of level n, state-local throughout.  The tile's
  // product lanes P * c(., n - 1, .) come from one lane product over the
  // band [0, m * n) of the previous level's rows, read in place; the
  // coefficient sweeps, the Bernstein sums and the transient axpys then
  // run lane-major, each lane loop over the tile's states; the new
  // coefficients go back to the tile's rows.  A tile reads only the
  // previous level and u = P^n v, and writes only its own states, so
  // every state's values come from the same expressions in the same order
  // at any thread count.
  const auto tile_pass = [&](std::size_t tile, std::size_t n, double* work) {
    const std::size_t B = tile_states;
    const std::size_t lo = tile * B;
    const std::size_t count = std::min(lo + B, num_rec) - lo;
    const std::size_t* states = sweep_order.data() + lo;
    const std::size_t* split = class_split.data() + tile * (m + 1);
    double* prod = work;
    double* coef = prod + row_lanes * B;
    double* a = coef + row_lanes * B;
    double* b = a + m * B;
    double* ut = b + m * B;
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t cls = rc.class_of[states[j]];
      for (std::size_t h = 1; h <= m; ++h) {
        a[(h - 1) * B + j] = coef_a[(h - 1) * (m + 1) + cls];
        b[(h - 1) * B + j] = coef_b[(h - 1) * (m + 1) + cls];
      }
      ut[j] = u[states[j]];
      if (n > 0)
        p.multiply_lanes_row(states[j], previous, row_lanes, m * n, prod + j, B);
    }
    // High sweep of h: members of class >= h (a suffix of the tile), h
    // ascending, k ascending; low sweep of h: class < h (a prefix), h
    // descending, k descending.  The high sweep of h and the low sweep of
    // m + 1 - h share one k loop: they write different lanes, or at the
    // middle h disjoint states, and read nothing the other writes, and
    // each only needs its own sweep of the previous step.
    for (std::size_t hh = 1; hh <= m; ++hh) {
      const std::size_t hl = m + 1 - hh;
      const std::size_t high_from = split[hh];
      const std::size_t low_to = split[hl];
      const double* ah = a + (hh - 1) * B;
      const double* bh = b + (hh - 1) * B;
      const double* al = a + (hl - 1) * B;
      const double* bl = b + (hl - 1) * B;
      const double* high_base =
          hh == 1 ? ut : coef + lane_of(m, hh - 1, n) * B;
      const double* low_base =
          hl == m ? nullptr : coef + lane_of(m, hl + 1, 0) * B;
      double* ch = coef + lane_of(m, hh, 0) * B;
      double* cl = coef + lane_of(m, hl, n) * B;
      for (std::size_t j = high_from; j < count; ++j) ch[j] = high_base[j];
      for (std::size_t j = 0; j < low_to; ++j)
        cl[j] = low_base == nullptr ? 0.0 : low_base[j];
      for (std::size_t k = 1; k <= n; ++k) {
        const double* c_prev = ch;
        const double* pr_high = prod + lane_of(m, hh, k - 1) * B;
        ch = coef + lane_of(m, hh, k) * B;
        CSRL_PRAGMA_SIMD
        for (std::size_t j = high_from; j < count; ++j)
          ch[j] = ah[j] * c_prev[j] + bh[j] * pr_high[j];
        const double* c_next = cl;
        const double* pr_low = prod + lane_of(m, hl, n - k) * B;
        cl = coef + lane_of(m, hl, n - k) * B;
        CSRL_PRAGMA_SIMD
        for (std::size_t j = 0; j < low_to; ++j)
          cl[j] = al[j] * c_next[j] + bl[j] * pr_low[j];
      }
    }
    add_bernstein_sums(terms, n, coef, B, lo, count);
    for (std::size_t hz = 0; hz < horizon_times.size(); ++hz) {
      if (horizon_live[hz] == 0) continue;
      const double w = horizon_weight[hz];
      double* acc = transient[hz].data() + lo;
      CSRL_PRAGMA_SIMD
      for (std::size_t j = 0; j < count; ++j) acc[j] += w * ut[j];
    }
    // The level's coefficients back into the tile's state-major rows.
    const std::size_t lanes = lane_of(m, 1, n + 1);
    for (std::size_t j = 0; j < count; ++j) {
      double* row = current + states[j] * row_lanes;
      for (std::size_t l = 0; l < lanes; ++l) row[l] = coef[l * B + j];
    }
  };

  // Each pool lane claims tiles until none is left, working in its own
  // scratch.  (The level loop's pool call captures only this and n, so
  // its std::function stays within the small-buffer size.)
  std::atomic<std::size_t> next_tile{0};
  const auto claim_tiles = [&](std::size_t lane, std::size_t n) {
    double* work = scratch.data() + lane * scratch_size;
    for (std::size_t tile = next_tile.fetch_add(1);
         tile < num_tiles;
         tile = next_tile.fetch_add(1))
      tile_pass(tile, n, work);
  };

  // Every table and buffer above is in place: the level loop itself must
  // not touch the heap.
  for (std::size_t n = 0; n <= max_n; ++n) {
    CSRL_SPAN("p3/sericola/column_sweep");
    CSRL_COUNT("p3/sericola/jump_levels", 1);
    CSRL_HIST_SCOPE("latency/p3_sweep");
    // A point's single run executes its accumulation for every n up to its
    // own window's right bound (including zero-weight steps below the
    // window, whose axpy leaves the accumulator bit-unchanged) and never
    // beyond it — mirror that exactly.
    for (std::size_t hz = 0; hz < horizon_times.size(); ++hz) {
      horizon_live[hz] = n <= windows[hz].right ? 1 : 0;
      horizon_weight[hz] = horizon_live[hz] != 0 ? windows[hz].weight(n) : 0.0;
    }
    for (std::size_t slot = 0; slot < num_points; ++slot) {
      const std::size_t pt = slot_point[slot];
      for (std::size_t k = 0; k <= n; ++k) term_live[k * num_points + slot] = 0;
      const PoissonWeights& window = windows[time_of_point[pt]];
      if (n > window.right) continue;
      const double w = window.weight(n);
      if (!(w > 0.0)) continue;
      for (std::size_t k = 0; k <= n; ++k) {
        // C(n,k) x^k (1-x)^{n-k}, evaluated in log space.
        double basis = k == 0 ? 1.0 : 0.0;
        if (x_of[pt] != 0.0)
          basis = std::exp(
              ((log_factorial[n] - log_factorial[k]) - log_factorial[n - k]) +
              static_cast<double>(k) * log_x[pt] +
              static_cast<double>(n - k) * log1m_x[pt]);
        if (!(basis > 0.0)) continue;
        term_weight[k * num_points + slot] = w * basis;
        term_live[k * num_points + slot] = 1;
      }
    }

    if (n > 0) {
      // lint:allow spmm-blocking (single power iterate, no batch to block)
      p.multiply(u, next_u);
      u.swap(next_u);
      p.charge_lane_product(m * n);
    }
    // The trivial states' transient axpys: the only term of theirs that
    // moves.
    for (std::size_t hz = 0; hz < horizon_times.size(); ++hz) {
      if (horizon_live[hz] == 0) continue;
      const double w = horizon_weight[hz];
      double* acc = transient[hz].data();
      for (std::size_t pos = num_rec; pos < num_states; ++pos)
        acc[pos] += w * u[sweep_order[pos]];
    }
    if (num_tiles == 1) {
      tile_pass(0, n, scratch.data());
    } else {
      next_tile.store(0);
      workers.parallel_for(0, scratch_lanes, 1,
                           [&](std::size_t lane_lo, std::size_t lane_hi) {
                             for (std::size_t lane = lane_lo; lane < lane_hi;
                                  ++lane)
                               claim_tiles(lane, n);
                           });
    }
    std::swap(current, previous);
  }

  std::vector<std::vector<double>> results(num_points);
  for (std::size_t pt = 0; pt < num_points; ++pt) {
    const std::vector<double>& tr = transient[time_of_point[pt]];
    const double* ex = exceed.data() + slot_of[pt] * num_rec;
    results[pt].assign(num_states, 0.0);
    for (std::size_t pos = 0; pos < num_rec; ++pos)
      results[pt][sweep_order[pos]] = std::clamp(tr[pos] - ex[pos], 0.0, 1.0);
    // A trivial state's exceed is +0, and tr - (+0) is tr.
    for (std::size_t pos = num_rec; pos < num_states; ++pos)
      results[pt][sweep_order[pos]] = std::clamp(tr[pos], 0.0, 1.0);
  }
  return results;
}

std::vector<std::vector<double>> SericolaEngine::joint_probability_all_starts_grid(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target) const {
  // The trivial cells are plain transient analyses: run them at this
  // engine's accuracy, never coarser than the transient default.
  TransientOptions transient;
  transient.epsilon = std::min(epsilon_, transient.epsilon);
  std::vector<std::vector<double>> grid;
  const std::vector<std::size_t> live_slot =
      peel_trivial_cells(model, times, rewards, target, transient, grid);
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
