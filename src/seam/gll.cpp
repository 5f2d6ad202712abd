#include "seam/gll.hpp"

#include <cmath>
#include <numbers>

#include "util/contract.hpp"

namespace sfp::seam {

double legendre(int n, double x) {
  SFP_REQUIRE(n >= 0, "degree must be non-negative");
  if (n == 0) return 1.0;
  double pm1 = 1.0, p = x;
  for (int k = 2; k <= n; ++k) {
    const double pk = ((2.0 * k - 1.0) * x * p - (k - 1.0) * pm1) / k;
    pm1 = p;
    p = pk;
  }
  return p;
}

gll_rule make_gll(int np) {
  SFP_REQUIRE(np >= 2, "GLL rule needs at least 2 points");
  const int n = np - 1;  // polynomial degree
  gll_rule rule;
  rule.nodes.resize(static_cast<std::size_t>(np));
  rule.weights.resize(static_cast<std::size_t>(np));

  // Newton iteration (von Winckel's classic lglnodes): nodes are the roots
  // of (1-x^2) P'_n(x); start from Chebyshev-Lobatto points.
  for (int i = 0; i < np; ++i) {
    double x = -std::cos(std::numbers::pi * i / n);
    double x_old = 2.0;
    double pn = 0.0;
    for (int it = 0; it < 100 && std::abs(x - x_old) > 1e-15; ++it) {
      x_old = x;
      // Evaluate P_{n}(x) and P_{n-1}(x) by recurrence.
      double pm1 = 1.0, p = x;
      for (int k = 2; k <= n; ++k) {
        const double pk = ((2.0 * k - 1.0) * x * p - (k - 1.0) * pm1) / k;
        pm1 = p;
        p = pk;
      }
      pn = p;
      x = x_old - (x * p - pm1) / (np * p);
    }
    rule.nodes[static_cast<std::size_t>(i)] = x;
    // Re-evaluate P_n at the converged node for the weight formula.
    pn = legendre(n, x);
    rule.weights[static_cast<std::size_t>(i)] =
        2.0 / (n * np * pn * pn);
  }
  // Pin the endpoints exactly.
  rule.nodes.front() = -1.0;
  rule.nodes.back() = 1.0;

  // Barycentric differentiation matrix: exact for the interpolation basis on
  // these nodes, no sign-convention pitfalls.
  std::vector<double> lambda(static_cast<std::size_t>(np), 1.0);
  for (int i = 0; i < np; ++i) {
    for (int j = 0; j < np; ++j) {
      if (i != j)
        lambda[static_cast<std::size_t>(i)] /=
            (rule.nodes[static_cast<std::size_t>(i)] -
             rule.nodes[static_cast<std::size_t>(j)]);
    }
  }
  rule.diff.assign(static_cast<std::size_t>(np) * static_cast<std::size_t>(np),
                   0.0);
  for (int i = 0; i < np; ++i) {
    double row_sum = 0.0;
    for (int j = 0; j < np; ++j) {
      if (i == j) continue;
      const double d = lambda[static_cast<std::size_t>(j)] /
                       (lambda[static_cast<std::size_t>(i)] *
                        (rule.nodes[static_cast<std::size_t>(i)] -
                         rule.nodes[static_cast<std::size_t>(j)]));
      rule.diff[static_cast<std::size_t>(i * np + j)] = d;
      row_sum += d;
    }
    rule.diff[static_cast<std::size_t>(i * np + i)] = -row_sum;
  }
  return rule;
}

}  // namespace sfp::seam
