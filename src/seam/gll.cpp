#include "seam/gll.hpp"

#include <cmath>
#include <cstring>
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
  rule.diff_t.resize(rule.diff.size());
  for (int i = 0; i < np; ++i)
    for (int j = 0; j < np; ++j)
      rule.diff_t[static_cast<std::size_t>(j * np + i)] =
          rule.diff[static_cast<std::size_t>(i * np + j)];
  return rule;
}

namespace {

// Two doubles in one 16-byte GCC vector: an SSE2 register, which every
// x86-64 target has, so the kernel vectorises at the baseline -O2 with no
// target flags. It must stay a plain typedef: vector_size on an alias that
// depends on a template parameter is silently ignored.
typedef double pair __attribute__((vector_size(16)));

pair load(const double* p) {
  pair v;
  std::memcpy(&v, p, sizeof v);  // unaligned: slabs sit at any offset
  return v;
}

void store(double* p, pair v) { std::memcpy(p, &v, sizeof v); }

// The one derivative kernel. Row j of both derivatives runs NP/2 pair
// accumulators across i, plus a scalar tail lane when NP is odd. Only lanes
// across i run together: each output still sums its NP products one at a
// time, in ascending m, from 0.0 — the scalar loop's order, so the result
// is bitwise the same. `out(k, dxi, deta)` then consumes the derivatives
// at nodes k, k+1 (pairs) or at node k (the tail lane). The pair loops are
// unrolled by pragma because -O2 fully unrolls only loops that do not grow
// the code, and the accumulators stay in registers only when unrolled.
template <int NP, typename Out>
void derivative_rows(const gll_rule& rule, const double* a, const double* b,
                     const Out& out) {
  constexpr int pairs = NP / 2;
  constexpr int tail = NP - 1;  // the scalar lane's i when NP is odd
  const double* D = rule.diff.data();
  const double* Dt = rule.diff_t.data();
  for (int j = 0; j < NP; ++j) {
    pair dxi[pairs], deta[pairs];
#pragma GCC unroll 8
    for (int p = 0; p < pairs; ++p) dxi[p] = deta[p] = pair{0.0, 0.0};
    double dxi_tail = 0.0, deta_tail = 0.0;
    for (int m = 0; m < NP; ++m) {
      const double a_jm = a[j * NP + m];
      const double d_jm = D[j * NP + m];
      const pair a_jm2 = {a_jm, a_jm};
      const pair d_jm2 = {d_jm, d_jm};
      const double* dt_m = Dt + m * NP;  // D[i*NP+m] for every i
      const double* b_m = b + m * NP;
#pragma GCC unroll 8
      for (int p = 0; p < pairs; ++p) {
        dxi[p] += load(dt_m + 2 * p) * a_jm2;
        deta[p] += d_jm2 * load(b_m + 2 * p);
      }
      if constexpr (NP % 2 != 0) {
        dxi_tail += dt_m[tail] * a_jm;
        deta_tail += d_jm * b_m[tail];
      }
    }
#pragma GCC unroll 8
    for (int p = 0; p < pairs; ++p) out(j * NP + 2 * p, dxi[p], deta[p]);
    if constexpr (NP % 2 != 0) out(j * NP + tail, dxi_tail, deta_tail);
  }
}

}  // namespace

template <int NP>
void gll_derivatives(const gll_rule& rule, const double* a, const double* b,
                     double* da_dxi, double* db_deta) {
  struct {
    double* dxi;
    double* deta;
    void operator()(int k, pair x, pair e) const {
      store(dxi + k, x);
      store(deta + k, e);
    }
    void operator()(int k, double x, double e) const {
      dxi[k] = x;
      deta[k] = e;
    }
  } const out{da_dxi, db_deta};
  derivative_rows<NP>(rule, a, b, out);
}

template <int NP>
void gll_advection(const gll_rule& rule, const double* q, const double* v_xi,
                   const double* v_eta, double* out) {
  struct {
    const double* v_xi;
    const double* v_eta;
    double* adv;
    void operator()(int k, pair x, pair e) const {
      store(adv + k, -(load(v_xi + k) * x + load(v_eta + k) * e));
    }
    void operator()(int k, double x, double e) const {
      adv[k] = -(v_xi[k] * x + v_eta[k] * e);
    }
  } const advect{v_xi, v_eta, out};
  derivative_rows<NP>(rule, q, q, advect);
}

#define SFP_INSTANTIATE_GLL_KERNELS(NP)                                  \
  template void gll_derivatives<NP>(const gll_rule&, const double*,     \
                                    const double*, double*, double*);   \
  template void gll_advection<NP>(const gll_rule&, const double*,       \
                                  const double*, const double*, double*);
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
