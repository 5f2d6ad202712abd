#pragma once
// Gauss–Lobatto–Legendre quadrature and spectral differentiation on [-1,1] —
// the per-element numerics of the spectral element method (paper Section 1:
// "model fields are approximated by high order polynomials") — and the one
// tensor-product derivative kernel every SEAM model runs per element, in
// lanes of two doubles (SSE2) or, on x86-64 CPUs with AVX2, four. Its row
// store is a policy: plain derivatives, the advective tendency, or an
// SSP-RK3 stage value of the advection equation. The width
// is read from CPUID once per process; every width rounds each output
// exactly as the scalar loop, so results do not depend on the CPU.

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

/// The lane widths of the derivative kernel, in doubles per vector: two
/// (SSE2, which every x86-64 CPU has; the only width elsewhere) or four
/// (AVX2, x86-64 only). Every width gives bitwise the same outputs.
enum class gll_width { sse2 = 2, avx2 = 4 };

/// The width this CPU runs the kernel at: avx2 where CPUID reports AVX2,
/// else sse2. Read once per process; it depends on the CPU only.
gll_width native_gll_width();

/// The tensor-product derivatives of one element, in one pass over its
/// nodes, at native_gll_width(). `a`, `b` and both outputs are NP×NP slabs
/// (node (i, j) at j*NP + i, i along xi), anywhere in memory; with
/// D = rule.diff,
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

/// One SSP-RK3 stage of the advection equation on one NP×NP slab, fused
/// into the same one pass: with L[k] the gll_advection tendency of `src`
/// at node k (rounded exactly as gll_advection rounds it),
///
///   dst[k] = rk3_stage_value<stage>(q[k], src[k], h * L[k])
///
/// (seam/rk3.hpp), stored as the row that holds node k is done. `stage` is
/// 0, 1 or 2. `dst` may be `q` (each node reads q[k] before it writes
/// dst[k]) but must not overlap `src` or the velocities.
template <int NP>
void gll_advection_stage(int stage, const gll_rule& rule, const double* q,
                         const double* src, const double* v_xi,
                         const double* v_eta, double h, double* dst);

/// The kernels above at a named `width`, which must be sse2 or
/// native_gll_width(): the entries that keep every width under the bitwise
/// oracle tests and the micro benchmarks on any host.
template <int NP>
void gll_derivatives_at(gll_width width, const gll_rule& rule,
                        const double* a, const double* b, double* da_dxi,
                        double* db_deta);
template <int NP>
void gll_advection_at(gll_width width, const gll_rule& rule, const double* q,
                      const double* v_xi, const double* v_eta, double* out);
template <int NP>
void gll_advection_stage_at(gll_width width, int stage, const gll_rule& rule,
                            const double* q, const double* src,
                            const double* v_xi, const double* v_eta, double h,
                            double* dst);

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
