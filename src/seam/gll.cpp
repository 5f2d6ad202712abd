#include "seam/gll.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <numbers>
#include <type_traits>

#include "seam/rk3.hpp"
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
  rule.diff_t.resize(rule.diff.size());
  for (int i = 0; i < np; ++i)
    for (int j = 0; j < np; ++j)
      rule.diff_t[static_cast<std::size_t>(j * np + i)] =
          rule.diff[static_cast<std::size_t>(i * np + j)];
  return rule;
}

namespace {

// The lane vectors: two doubles in one 16-byte GCC vector, an SSE2 register,
// which every x86-64 target has, so the baseline -O2 runs them with no
// target flags; and, on x86-64 only, four doubles in one 32-byte vector, an
// AVX2 register, touched only by code compiled under target("avx2"). Both
// must stay plain typedefs: vector_size on an alias that depends on a
// template parameter is silently ignored.
typedef double pair __attribute__((vector_size(16)));
#if defined(__x86_64__)
typedef double quad __attribute__((vector_size(32)));
#endif

// Unaligned (slabs sit at any offset) load and store of one lane vector or,
// for V = double, of one node. A vector goes by reference, never by value:
// these helpers are compiled for the baseline target, where a quad by value
// would take a different calling convention than in AVX code (-Wpsabi).
template <typename V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// The one derivative kernel, at lane vector V. Row j of both derivatives
// runs NP / W accumulators of W doubles across i, plus a scalar tail lane
// for each of the NP mod W last i. Only lanes across i run together: each
// output still sums its NP products one at a time, in ascending m, from
// 0.0 — the scalar loop's order, so every width is bitwise the same.
// `out(k, dxi, deta)` then consumes the derivatives at nodes k..k+W-1 (a
// vector) or at node k (a tail lane). Always inlined into its caller, so
// it compiles for the caller's target. The vector loops are unrolled by
// pragma because -O2 fully unrolls only loops that do not grow the code,
// and the accumulators stay in registers only when unrolled.
template <typename V, int NP, typename Out>
[[gnu::always_inline]] inline void derivative_rows(const gll_rule& rule,
                                                   const double* a,
                                                   const double* b,
                                                   const Out& out) {
  constexpr int W = static_cast<int>(sizeof(V) / sizeof(double));
  constexpr int vecs = NP / W;
  constexpr int tail = vecs * W;  // the first scalar lane's i
  const double* D = rule.diff.data();
  const double* Dt = rule.diff_t.data();
  for (int j = 0; j < NP; ++j) {
    std::array<V, vecs> dxi, deta;
    std::array<double, NP - tail> dxi_tail, deta_tail;
#pragma GCC unroll 8
    for (int p = 0; p < vecs; ++p) dxi[p] = deta[p] = V{};
    dxi_tail.fill(0.0);
    deta_tail.fill(0.0);
    for (int m = 0; m < NP; ++m) {
      const double a_jm = a[j * NP + m];
      const double d_jm = D[j * NP + m];
      const double* dt_m = Dt + m * NP;  // D[i*NP+m] for every i
      const double* b_m = b + m * NP;
#pragma GCC unroll 8
      for (int p = 0; p < vecs; ++p) {
        V dt_mp, b_mp;
        load(dt_mp, dt_m + W * p);
        load(b_mp, b_m + W * p);
        dxi[p] += dt_mp * a_jm;
        deta[p] += d_jm * b_mp;
      }
#pragma GCC unroll 4
      for (int t = 0; t < NP - tail; ++t) {
        dxi_tail[t] += dt_m[tail + t] * a_jm;
        deta_tail[t] += d_jm * b_m[tail + t];
      }
    }
#pragma GCC unroll 8
    for (int p = 0; p < vecs; ++p) out(j * NP + W * p, dxi[p], deta[p]);
#pragma GCC unroll 4
    for (int t = 0; t < NP - tail; ++t)
      out(j * NP + tail + t, dxi_tail[t], deta_tail[t]);
  }
}

#if defined(__x86_64__)
// The 4-wide kernel. The target is "avx2" alone, never "fma": under the
// C++ default -ffp-contract=fast GCC would fuse `acc += D * q` into one
// rounding and break the bitwise agreement with the other widths. Below
// NP = 4 a row holds no whole quad, so it runs pairs.
template <int NP, typename Out>
__attribute__((target("avx2"))) void derivative_rows_avx2(
    const gll_rule& rule, const double* a, const double* b, const Out& out) {
  derivative_rows<std::conditional_t<(NP >= 4), quad, pair>, NP>(rule, a, b,
                                                                  out);
}
#endif

// derivative_rows at `width`: the one width dispatch every kernel call
// takes.
template <int NP, typename Out>
[[gnu::always_inline]] inline void derivative_rows_at(gll_width width,
                                                      const gll_rule& rule,
                                                      const double* a,
                                                      const double* b,
                                                      const Out& out) {
#if defined(__x86_64__)
  if (width == gll_width::avx2) {
    derivative_rows_avx2<NP>(rule, a, b, out);
    return;
  }
#else
  (void)width;  // the only width off x86-64 is sse2
#endif
  derivative_rows<pair, NP>(rule, a, b, out);
}

// The entry points' bodies at `width`: the row loop with its row output
// policy — the store, the advective combine, or the stage value — fused
// into it.
template <int NP>
void derivatives(gll_width width, const gll_rule& rule, const double* a,
                 const double* b, double* da_dxi, double* db_deta) {
  const auto out = [=](int k, const auto& dxi, const auto& deta)
                       __attribute__((always_inline)) {
    store(da_dxi + k, dxi);
    store(db_deta + k, deta);
  };
  derivative_rows_at<NP>(width, rule, a, b, out);
}

template <int NP>
void advection(gll_width width, const gll_rule& rule, const double* q,
               const double* v_xi, const double* v_eta, double* out) {
  const auto advect = [=](int k, const auto& dxi, const auto& deta)
                          __attribute__((always_inline)) {
    std::remove_cvref_t<decltype(dxi)> vx, ve;
    load(vx, v_xi + k);
    load(ve, v_eta + k);
    store(out + k, -(vx * dxi + ve * deta));
  };
  derivative_rows_at<NP>(width, rule, q, q, advect);
}

// The third row store: the advective tendency of `src`, rounded as
// `advection` stores it, scaled by h and taken straight into stage S's
// value, so no tendency is ever written out.
template <int NP, int S>
void advection_stage(gll_width width, const gll_rule& rule, const double* q,
                     const double* src, const double* v_xi,
                     const double* v_eta, double h, double* dst) {
  const auto stage = [=](int k, const auto& dxi, const auto& deta)
                         __attribute__((always_inline)) {
    std::remove_cvref_t<decltype(dxi)> vx, ve, qk, sk, out;
    load(vx, v_xi + k);
    load(ve, v_eta + k);
    load(qk, q + k);
    load(sk, src + k);
    const decltype(out) tendency = -(vx * dxi + ve * deta);
    rk3_stage_value<S>(out, qk, sk, h * tendency);
    store(dst + k, out);
  };
  derivative_rows_at<NP>(width, rule, src, src, stage);
}

template <int NP>
void advection_stage(gll_width width, int stage, const gll_rule& rule,
                     const double* q, const double* src, const double* v_xi,
                     const double* v_eta, double h, double* dst) {
  with_rk3_stage(stage, [&]<int S>(std::integral_constant<int, S>) {
    advection_stage<NP, S>(width, rule, q, src, v_xi, v_eta, h, dst);
  });
}

void require_runs(gll_width width) {
  SFP_REQUIRE(width == gll_width::sse2 || width == native_gll_width(),
              "this CPU does not run the requested GLL kernel width");
}

}  // namespace

gll_width native_gll_width() {
#if defined(__x86_64__)
  // libgcc runs CPUID once, in a start-up constructor that runs before the
  // program's own, and this reads its cached feature bits: the choice costs
  // each kernel call one load and one branch.
  if (__builtin_cpu_supports("avx2")) return gll_width::avx2;
#endif
  return gll_width::sse2;
}

template <int NP>
void gll_derivatives(const gll_rule& rule, const double* a, const double* b,
                     double* da_dxi, double* db_deta) {
  derivatives<NP>(native_gll_width(), rule, a, b, da_dxi, db_deta);
}

template <int NP>
void gll_advection(const gll_rule& rule, const double* q, const double* v_xi,
                   const double* v_eta, double* out) {
  advection<NP>(native_gll_width(), rule, q, v_xi, v_eta, out);
}

template <int NP>
void gll_advection_stage(int stage, const gll_rule& rule, const double* q,
                         const double* src, const double* v_xi,
                         const double* v_eta, double h, double* dst) {
  advection_stage<NP>(native_gll_width(), stage, rule, q, src, v_xi, v_eta, h,
                      dst);
}

template <int NP>
void gll_derivatives_at(gll_width width, const gll_rule& rule,
                        const double* a, const double* b, double* da_dxi,
                        double* db_deta) {
  require_runs(width);
  derivatives<NP>(width, rule, a, b, da_dxi, db_deta);
}

template <int NP>
void gll_advection_at(gll_width width, const gll_rule& rule, const double* q,
                      const double* v_xi, const double* v_eta, double* out) {
  require_runs(width);
  advection<NP>(width, rule, q, v_xi, v_eta, out);
}

template <int NP>
void gll_advection_stage_at(gll_width width, int stage, const gll_rule& rule,
                            const double* q, const double* src,
                            const double* v_xi, const double* v_eta, double h,
                            double* dst) {
  require_runs(width);
  advection_stage<NP>(width, stage, rule, q, src, v_xi, v_eta, h, dst);
}

#define SFP_INSTANTIATE_GLL_KERNELS(NP)                                  \
  template void gll_derivatives<NP>(const gll_rule&, const double*,     \
                                    const double*, double*, double*);   \
  template void gll_advection<NP>(const gll_rule&, const double*,       \
                                  const double*, const double*, double*); \
  template void gll_derivatives_at<NP>(gll_width, const gll_rule&,      \
                                       const double*, const double*,    \
                                       double*, double*);               \
  template void gll_advection_at<NP>(gll_width, const gll_rule&,        \
                                     const double*, const double*,      \
                                     const double*, double*);           \
  template void gll_advection_stage<NP>(int, const gll_rule&,           \
                                        const double*, const double*,   \
                                        const double*, const double*,   \
                                        double, double*);               \
  template void gll_advection_stage_at<NP>(                             \
      gll_width, int, const gll_rule&, const double*, const double*,    \
      const double*, const double*, double, double*);
SFP_INSTANTIATE_GLL_KERNELS(2)
SFP_INSTANTIATE_GLL_KERNELS(3)
SFP_INSTANTIATE_GLL_KERNELS(4)
SFP_INSTANTIATE_GLL_KERNELS(5)
SFP_INSTANTIATE_GLL_KERNELS(6)
SFP_INSTANTIATE_GLL_KERNELS(7)
SFP_INSTANTIATE_GLL_KERNELS(8)
SFP_INSTANTIATE_GLL_KERNELS(9)
SFP_INSTANTIATE_GLL_KERNELS(10)
SFP_INSTANTIATE_GLL_KERNELS(11)
SFP_INSTANTIATE_GLL_KERNELS(12)
SFP_INSTANTIATE_GLL_KERNELS(13)
SFP_INSTANTIATE_GLL_KERNELS(14)
SFP_INSTANTIATE_GLL_KERNELS(15)
SFP_INSTANTIATE_GLL_KERNELS(16)
static_assert(max_np == 16, "instantiate the GLL kernels for every np");
#undef SFP_INSTANTIATE_GLL_KERNELS

}  // namespace sfp::seam
