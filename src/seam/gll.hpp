#pragma once
// Gauss–Lobatto–Legendre quadrature and spectral differentiation on [-1,1] —
// the per-element numerics of the spectral element method (paper Section 1:
// "model fields are approximated by high order polynomials") — and the one
// tensor-product derivative kernel every SEAM model runs per element.

#include <type_traits>
#include <utility>
#include <vector>

#include "util/contract.hpp"

namespace sfp::seam {

/// Largest GLL point count per element edge: the derivative kernel is
/// specialised for every np in [2, max_np].
inline constexpr int max_np = 16;

/// GLL rule with `np` points (polynomial degree np-1). Exact for integrands
/// of degree <= 2*np-3.
struct gll_rule {
  std::vector<double> nodes;    ///< ascending, nodes.front()=-1, back()=+1
  std::vector<double> weights;  ///< positive, summing to 2
  /// Dense differentiation matrix: (D q)_i = sum_j D[i*np+j] q_j is the
  /// derivative at node i of the degree np-1 interpolant of q.
  std::vector<double> diff;
  /// `diff` transposed: diff_t[j*np+i] == diff[i*np+j].
  std::vector<double> diff_t;

  int np() const { return static_cast<int>(nodes.size()); }
};

/// Compute the GLL rule (Newton iteration on the Legendre recurrence;
/// barycentric differentiation matrix). np >= 2.
gll_rule make_gll(int np);

/// Evaluate the Legendre polynomial P_n at x (used by tests).
double legendre(int n, double x);

/// `np`, required to lie in [2, max_np]: the point counts a SEAM model
/// can run.
inline int checked_np(int np) {
  SFP_REQUIRE(np >= 2 && np <= max_np, "np must be in [2, 16]");
  return np;
}

/// The tensor-product derivatives of one element, in one pass over its
/// nodes. `a`, `b` and both outputs are NP×NP slabs (node (i, j) at
/// j*NP + i, i along xi), anywhere in memory; with D = rule.diff,
///
///   da_dxi[j*NP+i]  = sum_m D[i*NP+m] * a[j*NP+m]
///   db_deta[j*NP+i] = sum_m D[j*NP+m] * b[m*NP+i]
///
/// each summed from 0.0 in ascending m, so every output rounds exactly as
/// the scalar triple loop. `rule` must have NP points. Defined for
/// 2 <= NP <= max_np; pick NP once per element pass with with_np.
template <int NP>
void gll_derivatives(const gll_rule& rule, const double* a, const double* b,
                     double* da_dxi, double* db_deta);

/// The advective tendency of one NP×NP slab q with contravariant velocity
/// (v_xi, v_eta), from the same one pass over q:
///
///   out[k] = -(v_xi[k] * dq_dxi[k] + v_eta[k] * dq_deta[k])
///
/// with the derivatives of gll_derivatives(rule, q, q, ...), rounded
/// exactly as that expression. `out` must not overlap the inputs.
template <int NP>
void gll_advection(const gll_rule& rule, const double* q, const double* v_xi,
                   const double* v_eta, double* out);

/// Calls fn(std::integral_constant<int, NP>{}) with NP == np: the one
/// runtime-to-compile-time np switch, taken once per element pass.
template <typename Fn>
void with_np(int np, Fn&& fn) {
  checked_np(np);
  [&]<int... N>(std::integer_sequence<int, N...>) {
    (void)((np == N + 2 && (fn(std::integral_constant<int, N + 2>{}), true)) ||
           ...);
  }(std::make_integer_sequence<int, max_np - 1>{});
}

}  // namespace sfp::seam
