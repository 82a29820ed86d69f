// Test oracle: Sericola's all-starts recursion in its one-column form.
//
// SericolaEngine keeps the coefficients c(h, n, k) state-major and runs
// each jump level's m * n products as one lane product over its rows
// (docs/ALGORITHMS.md section 3).  This is the textbook form: one vector
// over the states per (h, k), every product a separate multiply(), the
// sweeps state by state, one axpy per Bernstein term.  It evaluates the
// engine's expressions in the engine's per-state order, so its grid must
// match the engine's bit for bit.  bench_spmm uses it as its gate's
// reference and as the one-column timing baseline.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "ctmc/foxglynn.hpp"
#include "matrix/csr.hpp"
#include "mrm/mrm.hpp"
#include "util/math.hpp"
#include "util/state_set.hpp"

namespace csrl::oracle {

/// Reward levels 0 = rho_0 < ... < rho_m, class 0 anchored at zero.
inline std::vector<double> reward_levels(const Mrm& model) {
  std::vector<double> levels = model.distinct_rewards();
  if (levels.empty() || levels.front() > 0.0) levels.insert(levels.begin(), 0.0);
  return levels;
}

/// The Sericola all-starts grid over times x rewards (slot t * |R| + r),
/// one vector per start-state set of the lattice.  The rewards must lie
/// strictly inside (0, max_reward * t) for every t, so no cell is trivial.
inline std::vector<std::vector<double>> sericola_one_column_grid(
    const Mrm& model, const std::vector<double>& times,
    const std::vector<double>& rewards, const StateSet& target,
    double epsilon) {
  const std::size_t ns = model.num_states();
  const std::vector<double> levels = reward_levels(model);
  const std::size_t m = levels.size() - 1;
  std::vector<std::size_t> cls(ns);
  for (std::size_t s = 0; s < ns; ++s)
    cls[s] = static_cast<std::size_t>(
        std::lower_bound(levels.begin(), levels.end(), model.reward(s)) -
        levels.begin());
  const double lambda = model.chain().max_exit_rate();
  const CsrMatrix p = model.chain().uniformised_dtmc(lambda);

  std::vector<PoissonWeights> windows;
  std::size_t max_n = 0;
  for (double t : times) {
    windows.push_back(poisson_weights(lambda * t, epsilon));
    max_n = std::max(max_n, windows.back().right);
  }
  struct Point {
    std::size_t time, h;
    double log_x, log1m_x;
    bool zero;
  };
  std::vector<Point> points;
  for (std::size_t ti = 0; ti < times.size(); ++ti)
    for (double r : rewards) {
      const double t = times[ti];
      std::size_t h = m;
      for (std::size_t q = 1; q <= m; ++q)
        if (r < levels[q] * t) {
          h = q;
          break;
        }
      const double x = std::clamp(
          (r - levels[h - 1] * t) / ((levels[h] - levels[h - 1]) * t), 0.0,
          1.0 - 1e-16);
      points.push_back({ti, h, x == 0.0 ? 0.0 : std::log(x),
                        x == 0.0 ? 0.0 : std::log1p(-x), x == 0.0});
    }
  std::vector<double> log_factorial(max_n + 1);
  for (std::size_t j = 0; j <= max_n; ++j)
    log_factorial[j] = lgamma_safe(static_cast<double>(j) + 1.0);

  const auto at = [&](std::vector<double>& store, std::size_t h,
                      std::size_t k) {
    return store.data() + ((h - 1) * (max_n + 1) + k) * ns;
  };
  std::vector<double> current(m * (max_n + 1) * ns, 0.0);
  std::vector<double> previous(current.size(), 0.0);
  std::vector<double> products(current.size(), 0.0);
  std::vector<double> u = target.indicator();
  std::vector<double> next_u(ns);
  std::vector<std::vector<double>> transient(times.size(),
                                             std::vector<double>(ns, 0.0));
  std::vector<std::vector<double>> exceed(points.size(),
                                          std::vector<double>(ns, 0.0));
  for (std::size_t n = 0; n <= max_n; ++n) {
    if (n > 0) {
      p.multiply(u, next_u);
      u.swap(next_u);
      for (std::size_t h = 1; h <= m; ++h)
        for (std::size_t k = 0; k < n; ++k)
          p.multiply({at(previous, h, k), ns}, {at(products, h, k), ns});
    }
    for (std::size_t i = 0; i < ns; ++i) {
      const std::size_t c = cls[i];
      for (std::size_t h = 1; h <= c; ++h) {  // high sweep
        const double a = (levels[c] - levels[h]) / (levels[c] - levels[h - 1]);
        const double b =
            (levels[h] - levels[h - 1]) / (levels[c] - levels[h - 1]);
        at(current, h, 0)[i] = h == 1 ? u[i] : at(current, h - 1, n)[i];
        for (std::size_t k = 1; k <= n; ++k)
          at(current, h, k)[i] = a * at(current, h, k - 1)[i] +
                                 b * at(products, h, k - 1)[i];
      }
      for (std::size_t h = m; h > c; --h) {  // low sweep
        const double a = (levels[h - 1] - levels[c]) / (levels[h] - levels[c]);
        const double b = (levels[h] - levels[h - 1]) / (levels[h] - levels[c]);
        at(current, h, n)[i] = h == m ? 0.0 : at(current, h + 1, 0)[i];
        for (std::size_t k = n; k-- > 0;)
          at(current, h, k)[i] =
              a * at(current, h, k + 1)[i] + b * at(products, h, k)[i];
      }
    }
    for (std::size_t ti = 0; ti < times.size(); ++ti)
      if (n <= windows[ti].right)
        for (std::size_t i = 0; i < ns; ++i)
          transient[ti][i] += windows[ti].weight(n) * u[i];
    for (std::size_t pt = 0; pt < points.size(); ++pt) {
      const Point& q = points[pt];
      if (n > windows[q.time].right) continue;
      const double w = windows[q.time].weight(n);
      if (!(w > 0.0)) continue;
      for (std::size_t k = 0; k <= n; ++k) {
        double basis = k == 0 ? 1.0 : 0.0;
        if (!q.zero)
          basis = std::exp(
              ((log_factorial[n] - log_factorial[k]) - log_factorial[n - k]) +
              static_cast<double>(k) * q.log_x +
              static_cast<double>(n - k) * q.log1m_x);
        if (!(basis > 0.0)) continue;
        const double coef = w * basis;
        const double* c = at(current, q.h, k);
        for (std::size_t i = 0; i < ns; ++i) exceed[pt][i] += coef * c[i];
      }
    }
    current.swap(previous);
  }
  std::vector<std::vector<double>> grid(points.size(),
                                        std::vector<double>(ns));
  for (std::size_t pt = 0; pt < points.size(); ++pt)
    for (std::size_t i = 0; i < ns; ++i)
      grid[pt][i] = std::clamp(
          transient[points[pt].time][i] - exceed[pt][i], 0.0, 1.0);
  return grid;
}

}  // namespace csrl::oracle
