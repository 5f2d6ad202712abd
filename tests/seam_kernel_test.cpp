// Bitwise oracle for the one GLL tensor-product derivative kernel. The
// oracle is the plain scalar triple loop every SEAM model used to run; the
// np-specialised kernel must reproduce it bit for bit, for every np it is
// instantiated for and at every lane width (SSE2 pairs, AVX2 quads), on
// seeded random data, including slabs at odd double offsets inside a
// larger buffer (as rank-local slots are).
//
// This is the wall that catches a wrong kernel: the distributed-vs-serial
// checks (DistributedRanks.MatchesSerialExecution, perfbench's per-op
// check) run the same kernel on both sides, so a bug shared by both paths
// passes them.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "mesh/cubed_sphere.hpp"
#include "seam/advection.hpp"
#include "seam/gll.hpp"
#include "seam/shallow_water.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfp;
using namespace sfp::seam;

// ---- the scalar oracle ------------------------------------------------------

/// Differentiate along xi (rows) within one element's np×np slab.
void oracle_deriv_xi(const double* D, const double* q, double* dq, int np) {
  for (int j = 0; j < np; ++j) {
    for (int i = 0; i < np; ++i) {
      double acc = 0;
      for (int m = 0; m < np; ++m) acc += D[i * np + m] * q[j * np + m];
      dq[j * np + i] = acc;
    }
  }
}

/// Differentiate along eta (columns).
void oracle_deriv_eta(const double* D, const double* q, double* dq, int np) {
  for (int j = 0; j < np; ++j) {
    for (int i = 0; i < np; ++i) {
      double acc = 0;
      for (int m = 0; m < np; ++m) acc += D[j * np + m] * q[m * np + i];
      dq[j * np + i] = acc;
    }
  }
}

/// The fused advection loop: out = -(v_xi dq/dxi + v_eta dq/deta).
void oracle_advection(const double* D, const double* q, const double* vx,
                      const double* vy, double* out, int np) {
  for (int j = 0; j < np; ++j) {
    for (int i = 0; i < np; ++i) {
      double dqdxi = 0.0, dqdeta = 0.0;
      for (int m = 0; m < np; ++m) {
        dqdxi += D[i * np + m] * q[j * np + m];
        dqdeta += D[j * np + m] * q[m * np + i];
      }
      const int idx = j * np + i;
      out[idx] = -(vx[idx] * dqdxi + vy[idx] * dqdeta);
    }
  }
}

/// The shallow-water element tendency, written out with the scalar
/// derivatives. `nodes` is the element's np² node geometry.
void oracle_swe_rhs(const double* D,
                    const shallow_water_model::node_data* nodes, double g,
                    const double* h, const double* ux, const double* uy,
                    const double* uz, double* rh, double* rx, double* ry,
                    double* rz, int np) {
  const std::size_t n = static_cast<std::size_t>(np * np);
  std::vector<double> uxi(n), ueta(n), fxi(n), feta(n), dq1(n), dq2(n), dhx(n),
      dhe(n), dux1(n), dux2(n), duy1(n), duy2(n), duz1(n), duz2(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& nd = nodes[k];
    const mesh::vec3 u{ux[k], uy[k], uz[k]};
    const double c1 = mesh::dot(u, nd.t_xi);
    const double c2 = mesh::dot(u, nd.t_eta);
    uxi[k] = nd.gi11 * c1 + nd.gi12 * c2;
    ueta[k] = nd.gi12 * c1 + nd.gi22 * c2;
    fxi[k] = nd.jac * h[k] * uxi[k];
    feta[k] = nd.jac * h[k] * ueta[k];
  }
  oracle_deriv_xi(D, fxi.data(), dq1.data(), np);
  oracle_deriv_eta(D, feta.data(), dq2.data(), np);
  oracle_deriv_xi(D, h, dhx.data(), np);
  oracle_deriv_eta(D, h, dhe.data(), np);
  oracle_deriv_xi(D, ux, dux1.data(), np);
  oracle_deriv_eta(D, ux, dux2.data(), np);
  oracle_deriv_xi(D, uy, duy1.data(), np);
  oracle_deriv_eta(D, uy, duy2.data(), np);
  oracle_deriv_xi(D, uz, duz1.data(), np);
  oracle_deriv_eta(D, uz, duz2.data(), np);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& nd = nodes[k];
    rh[k] = -(dq1[k] + dq2[k]) / nd.jac;
    const double ax = uxi[k] * dux1[k] + ueta[k] * dux2[k];
    const double ay = uxi[k] * duy1[k] + ueta[k] * duy2[k];
    const double az = uxi[k] * duz1[k] + ueta[k] * duz2[k];
    const mesh::vec3 txi_up = nd.gi11 * nd.t_xi + nd.gi12 * nd.t_eta;
    const mesh::vec3 teta_up = nd.gi12 * nd.t_xi + nd.gi22 * nd.t_eta;
    const mesh::vec3 grad_h = dhx[k] * txi_up + dhe[k] * teta_up;
    const mesh::vec3 u{ux[k], uy[k], uz[k]};
    const mesh::vec3 cor = nd.coriolis * mesh::cross(nd.pos, u);
    rx[k] = -ax - cor.x - g * grad_h.x;
    ry[k] = -ay - cor.y - g * grad_h.y;
    rz[k] = -az - cor.z - g * grad_h.z;
  }
}

// ---- helpers ----------------------------------------------------------------

/// Same bits, element by element; names the first differing index.
::testing::AssertionResult bitwise_equal(std::span<const double> got,
                                         std::span<const double> want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << got.size() << " vs " << want.size();
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0)
    return ::testing::AssertionSuccess();
  for (std::size_t k = 0; k < got.size(); ++k)
    if (std::memcmp(&got[k], &want[k], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "first difference at " << k << ": " << got[k] << " vs "
             << want[k];
  return ::testing::AssertionFailure() << "memcmp differs";
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  rng gen(seed);
  std::vector<double> v(n);
  for (double& x : v) x = gen.uniform(-2.0, 2.0);
  return v;
}

/// Slab `s` of a buffer that starts one double in (an odd offset) and
/// holds consecutive np² slabs, as a rank-local field does.
template <typename T>
std::span<T> slab(std::vector<std::remove_const_t<T>>& buf, std::size_t s,
                  std::size_t per_elem) {
  return std::span<T>(buf).subspan(1 + s * per_elem, per_elem);
}

/// gll_derivatives<np> on seeded random slabs at an odd offset, at `width`
/// or, without one, at the native width, against the scalar loops.
void expect_derivatives_match(int np, std::optional<gll_width> width) {
  const gll_rule rule = make_gll(np);
  const std::size_t n = static_cast<std::size_t>(np * np);
  // Three slabs back to back from an odd offset: a, b, then outputs.
  std::vector<double> in =
      random_values(1 + 2 * n, 11u + static_cast<unsigned>(np));
  std::vector<double> got(1 + 2 * n, 0.0);
  const double* a = slab<const double>(in, 0, n).data();
  const double* b = slab<const double>(in, 1, n).data();
  double* dxi = slab<double>(got, 0, n).data();
  double* deta = slab<double>(got, 1, n).data();
  with_np(np, [&]<int NP>(std::integral_constant<int, NP>) {
    if (width)
      gll_derivatives_at<NP>(*width, rule, a, b, dxi, deta);
    else
      gll_derivatives<NP>(rule, a, b, dxi, deta);
  });
  std::vector<double> want_xi(n), want_eta(n);
  oracle_deriv_xi(rule.diff.data(), a, want_xi.data(), np);
  oracle_deriv_eta(rule.diff.data(), b, want_eta.data(), np);
  EXPECT_TRUE(bitwise_equal({dxi, n}, want_xi));
  EXPECT_TRUE(bitwise_equal({deta, n}, want_eta));
}

/// The same for gll_advection<np>.
void expect_advection_matches(int np, std::optional<gll_width> width) {
  const gll_rule rule = make_gll(np);
  const std::size_t n = static_cast<std::size_t>(np * np);
  std::vector<double> in =
      random_values(1 + 3 * n, 23u + static_cast<unsigned>(np));
  std::vector<double> got(1 + n, 0.0);
  const double* q = slab<const double>(in, 0, n).data();
  const double* vx = slab<const double>(in, 1, n).data();
  const double* vy = slab<const double>(in, 2, n).data();
  double* out = slab<double>(got, 0, n).data();
  with_np(np, [&]<int NP>(std::integral_constant<int, NP>) {
    if (width)
      gll_advection_at<NP>(*width, rule, q, vx, vy, out);
    else
      gll_advection<NP>(rule, q, vx, vy, out);
  });
  std::vector<double> want(n);
  oracle_advection(rule.diff.data(), q, vx, vy, want.data(), np);
  EXPECT_TRUE(bitwise_equal({out, n}, want));
}

// ---- the kernel at the native width, and through the models --------------

class GllKernel : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(EveryNp, GllKernel,
                         ::testing::Range(2, max_np + 1));

TEST_P(GllKernel, DerivativesMatchScalarLoopsBitwise) {
  expect_derivatives_match(GetParam(), std::nullopt);
}

TEST_P(GllKernel, AdvectionMatchesScalarLoopBitwise) {
  expect_advection_matches(GetParam(), std::nullopt);
}

// ---- the kernel at every width --------------------------------------------

/// (np, width): every width runs on every host that has it, so the SSE2
/// lanes stay under the oracle on AVX2 hosts as well.
class GllKernelWidth
    : public ::testing::TestWithParam<std::tuple<int, gll_width>> {
 protected:
  void SetUp() override {
    if (width() == gll_width::avx2 && native_gll_width() != gll_width::avx2)
      GTEST_SKIP() << "this CPU does not run AVX2";
  }
  int np() const { return std::get<0>(GetParam()); }
  gll_width width() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    EveryNpAndWidth, GllKernelWidth,
    ::testing::Combine(::testing::Range(2, max_np + 1),
                       ::testing::Values(gll_width::sse2, gll_width::avx2)),
    [](const ::testing::TestParamInfo<std::tuple<int, gll_width>>& p) {
      return "np" + std::to_string(std::get<0>(p.param)) +
             (std::get<1>(p.param) == gll_width::avx2 ? "_avx2" : "_sse2");
    });

TEST_P(GllKernelWidth, DerivativesMatchScalarLoopsBitwise) {
  expect_derivatives_match(np(), width());
}

TEST_P(GllKernelWidth, AdvectionMatchesScalarLoopBitwise) {
  expect_advection_matches(np(), width());
}

TEST(GllKernelDispatch, RejectsNpOutsideTheInstantiatedRange) {
  EXPECT_THROW(with_np(1, [](auto) {}), contract_error);
  EXPECT_THROW(with_np(max_np + 1, [](auto) {}), contract_error);
}

// ---- the model entry points (native width) --------------------------------

TEST_P(GllKernel, AdvectionTendencyMatchesOracleBitwise) {
  const int np = GetParam();
  const mesh::cubed_sphere m(2);
  const advection_model model(m, np);
  const std::size_t n = static_cast<std::size_t>(np * np);
  const std::size_t nelem = static_cast<std::size_t>(m.num_elements());
  const double* D = model.rule().diff.data();
  const node_geometry& g = model.geometry();
  std::vector<double> q =
      random_values(1 + nelem * n, 37u + static_cast<unsigned>(np));

  // Oracle in slot order: slot l holds element nelem - 1 - l.
  std::vector<int> elems(nelem);
  std::vector<double> want(1 + nelem * n, 0.0);
  for (std::size_t l = 0; l < nelem; ++l) {
    elems[l] = static_cast<int>(nelem - 1 - l);
    const std::size_t at = static_cast<std::size_t>(elems[l]) * n;
    oracle_advection(D, slab<const double>(q, l, n).data(), g.v_xi.data() + at,
                     g.v_eta.data() + at, slab<double>(want, l, n).data(), np);
  }
  const std::span<const double> qs = std::span<const double>(q).subspan(1);

  std::vector<double> got(1 + nelem * n, 0.0);
  model.tendency_elements(qs, std::span<double>(got).subspan(1), elems);
  EXPECT_TRUE(bitwise_equal(got, want));

  std::vector<double> one(1 + nelem * n, 0.0);
  for (std::size_t l = 0; l < nelem; ++l)
    model.tendency_elements(slab<const double>(q, l, n),
                            slab<double>(one, l, n),
                            std::span<const int>(&elems[l], 1));
  EXPECT_TRUE(bitwise_equal(one, want));

  // The serial pass: slot e holds element e.
  std::vector<double> serial_want(nelem * n), serial_got(nelem * n);
  for (std::size_t e = 0; e < nelem; ++e)
    oracle_advection(D, q.data() + 1 + e * n, g.v_xi.data() + e * n,
                     g.v_eta.data() + e * n, serial_want.data() + e * n, np);
  model.tendency(qs, serial_got);
  EXPECT_TRUE(bitwise_equal(serial_got, serial_want));
}

TEST_P(GllKernel, SweRhsMatchesOracleBitwise) {
  const int np = GetParam();
  const mesh::cubed_sphere m(2);
  const shallow_water_model model(m, np, {1.3, 0.7});
  const std::size_t n = static_cast<std::size_t>(np * np);
  const std::size_t nelem = static_cast<std::size_t>(m.num_elements());
  const double* D = model.rule().diff.data();
  // Four random fields (h, ux, uy, uz), each from an odd offset; depth
  // kept positive.
  using fields = std::vector<std::vector<double>>;
  fields in;
  for (unsigned f = 0; f < 4; ++f)
    in.push_back(random_values(
        1 + nelem * n, 41u + 4u * static_cast<unsigned>(np) + f));
  for (double& h : in[0]) h += 3.0;
  const auto at = [&](fields& v, std::size_t f, std::size_t l) {
    return slab<double>(v[f], l, n);
  };

  std::vector<int> elems(nelem);
  fields want(4, std::vector<double>(1 + nelem * n, 0.0));
  for (std::size_t l = 0; l < nelem; ++l) {
    elems[l] = static_cast<int>((7 * l + 3) % nelem);
    oracle_swe_rhs(
        D, model.nodes().data() + static_cast<std::size_t>(elems[l]) * n,
        model.params().gravity, at(in, 0, l).data(), at(in, 1, l).data(),
        at(in, 2, l).data(), at(in, 3, l).data(), at(want, 0, l).data(),
        at(want, 1, l).data(), at(want, 2, l).data(), at(want, 3, l).data(),
        np);
  }

  // Every slot in one pass, then one slot per call.
  const auto tail = [](std::vector<double>& v) {
    return std::span<double>(v).subspan(1);
  };
  fields got(4, std::vector<double>(1 + nelem * n, 0.0));
  model.rhs_elements(tail(in[0]), tail(in[1]), tail(in[2]), tail(in[3]),
                     tail(got[0]), tail(got[1]), tail(got[2]), tail(got[3]),
                     elems);
  for (std::size_t f = 0; f < 4; ++f)
    EXPECT_TRUE(bitwise_equal(got[f], want[f]));

  fields one(4, std::vector<double>(1 + nelem * n, 0.0));
  for (std::size_t l = 0; l < nelem; ++l)
    model.rhs_elements(at(in, 0, l), at(in, 1, l), at(in, 2, l), at(in, 3, l),
                       at(one, 0, l), at(one, 1, l), at(one, 2, l),
                       at(one, 3, l), std::span<const int>(&elems[l], 1));
  for (std::size_t f = 0; f < 4; ++f)
    EXPECT_TRUE(bitwise_equal(one[f], want[f]));
}

}  // namespace
