// Bitwise oracle for the one GLL tensor-product derivative kernel. The
// oracle is the plain scalar triple loop every SEAM model used to run; the
// np-specialised kernel must reproduce it bit for bit, for every np it is
// instantiated for and at every lane width (SSE2 pairs, AVX2 quads), on
// seeded random data, including slabs at odd double offsets inside a
// larger buffer (as rank-local slots are).
//
// The fused stage entries — the advection kernel storing an SSP-RK3 stage
// value in its row store, and the shallow-water pass storing one per node —
// are held to the scalar tendency oracle followed by the scalar stage
// formula, written out below, for every stage (the last one in place).
//
// This is the wall that catches a wrong kernel: the distributed-vs-serial
// checks (DistributedRanks.MatchesSerialExecution, perfbench's per-op
// check) run the same kernel on both sides, so a bug shared by both paths
// passes them.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "seam/rk3.hpp"
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

/// The Shu–Osher stage value of one node, written out: stage 0 is
/// q + hl, stage 1 is 3/4 q + 1/4 (src + hl), stage 2 is
/// 1/3 q + 2/3 (src + hl), with hl = h · L(src).
double oracle_stage(int stage, double q, double src, double hl) {
  if (stage == 0) return q + hl;
  if (stage == 1) return 0.75 * q + 0.25 * (src + hl);
  return q / 3.0 + (2.0 / 3.0) * (src + hl);
}

/// Tangent projection of one node's velocity, written out.
void oracle_project(const mesh::vec3& p, double& ux, double& uy, double& uz) {
  const double un = ux * p.x + uy * p.y + uz * p.z;
  ux -= un * p.x;
  uy -= un * p.y;
  uz -= un * p.z;
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

/// gll_advection_stage<np> (at `width`, or natively without one) for one
/// stage on seeded slabs at odd offsets, against the scalar advection loop
/// followed by the scalar stage formula. Stage 0 reads src = q; stage 2
/// runs in place, dst = q, as ssp_rk3_step calls it.
void expect_advection_stage_matches(int np, std::optional<gll_width> width,
                                    int stage) {
  SCOPED_TRACE("stage " + std::to_string(stage));
  const gll_rule rule = make_gll(np);
  const std::size_t n = static_cast<std::size_t>(np * np);
  std::vector<double> in = random_values(
      1 + 4 * n, 53u + 3u * static_cast<unsigned>(np) +
                     static_cast<unsigned>(stage));
  const double h = 0.3 + 0.01 * np;
  // q and dst share one buffer for the in-place stage.
  std::vector<double> qbuf(1 + n, 0.0), got(1 + n, 0.0);
  std::copy_n(in.begin() + 1, n, qbuf.begin() + 1);
  const double* q = qbuf.data() + 1;
  const double* src = stage == 0 ? q : slab<const double>(in, 1, n).data();
  const double* vx = slab<const double>(in, 2, n).data();
  const double* vy = slab<const double>(in, 3, n).data();
  double* dst = stage == 2 ? qbuf.data() + 1 : got.data() + 1;

  std::vector<double> tendency(n), want(n);
  oracle_advection(rule.diff.data(), src, vx, vy, tendency.data(), np);
  for (std::size_t k = 0; k < n; ++k)
    want[k] = oracle_stage(stage, q[k], src[k], h * tendency[k]);

  with_np(np, [&]<int NP>(std::integral_constant<int, NP>) {
    if (width)
      gll_advection_stage_at<NP>(*width, stage, rule, q, src, vx, vy, h, dst);
    else
      gll_advection_stage<NP>(stage, rule, q, src, vx, vy, h, dst);
  });
  EXPECT_TRUE(bitwise_equal({dst, n}, want));
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

TEST_P(GllKernel, AdvectionStageMatchesScalarLoopsBitwise) {
  for (int stage = 0; stage < 3; ++stage)
    expect_advection_stage_matches(GetParam(), std::nullopt, stage);
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

TEST_P(GllKernelWidth, AdvectionStageMatchesScalarLoopsBitwise) {
  for (int stage = 0; stage < 3; ++stage)
    expect_advection_stage_matches(np(), width(), stage);
}

TEST(GllKernelDispatch, RejectsNpOutsideTheInstantiatedRange) {
  EXPECT_THROW(with_np(1, [](auto) {}), contract_error);
  EXPECT_THROW(with_np(max_np + 1, [](auto) {}), contract_error);
}

TEST(GllKernelDispatch, RejectsAStageOutsideTheThree) {
  EXPECT_THROW(with_rk3_stage(-1, [](auto) {}), contract_error);
  EXPECT_THROW(with_rk3_stage(3, [](auto) {}), contract_error);
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

  // The serial pass: slot e holds element e.
  std::vector<double> want(nelem * n), got(nelem * n);
  for (std::size_t e = 0; e < nelem; ++e)
    oracle_advection(D, q.data() + 1 + e * n, g.v_xi.data() + e * n,
                     g.v_eta.data() + e * n, want.data() + e * n, np);
  model.tendency(std::span<const double>(q).subspan(1), got);
  EXPECT_TRUE(bitwise_equal(got, want));
}

TEST_P(GllKernel, AdvectionStagePassesMatchOracleBitwise) {
  const int np = GetParam();
  const mesh::cubed_sphere m(2);
  const advection_model model(m, np);
  const std::size_t n = static_cast<std::size_t>(np * np);
  const std::size_t nelem = static_cast<std::size_t>(m.num_elements());
  const double* D = model.rule().diff.data();
  const node_geometry& g = model.geometry();
  const std::vector<double> q0 =
      random_values(1 + nelem * n, 61u + static_cast<unsigned>(np));
  const std::vector<double> s0 =
      random_values(1 + nelem * n, 67u + static_cast<unsigned>(np));
  const double h = 0.05 * np;
  // Slot l holds element nelem - 1 - l.
  std::vector<int> elems(nelem);
  for (std::size_t l = 0; l < nelem; ++l)
    elems[l] = static_cast<int>(nelem - 1 - l);
  const auto tail = [](std::vector<double>& v) {
    return std::span<double>(v).subspan(1);
  };

  for (int stage = 0; stage < 3; ++stage) {
    SCOPED_TRACE("stage " + std::to_string(stage));
    std::vector<double> q = q0;
    std::vector<double> src = stage == 0 ? q0 : s0;
    // The oracle, in slot order, then in the serial (element) order.
    // The padding double ahead of slot 0 stays as the pass found it.
    std::vector<double> want(1 + nelem * n, 0.0);
    want[0] = stage == 2 ? q[0] : 0.0;
    std::vector<double> serial_want = want;
    std::vector<double> tendency(n);
    for (std::size_t l = 0; l < nelem; ++l) {
      for (const bool serial : {false, true}) {
        const std::size_t e =
            serial ? l : static_cast<std::size_t>(elems[l]);
        oracle_advection(D, slab<const double>(src, l, n).data(),
                         g.v_xi.data() + e * n, g.v_eta.data() + e * n,
                         tendency.data(), np);
        const std::span<double> out =
            slab<double>(serial ? serial_want : want, l, n);
        for (std::size_t k = 0; k < n; ++k)
          out[k] = oracle_stage(stage, q[1 + l * n + k],
                                src[1 + l * n + k], h * tendency[k]);
      }
    }

    // Each pass below writes into a fresh `dst`: for stage 2 a copy of q,
    // which the pass then also reads as q (in place, as ssp_rk3_step calls
    // it). Stage 0 reads src = q.
    const auto fresh_dst = [&] {
      return stage == 2 ? q : std::vector<double>(q.size(), 0.0);
    };
    const auto q_of = [&](std::vector<double>& dst) -> std::vector<double>& {
      return stage == 2 ? dst : q;
    };
    const auto src_of = [&](std::vector<double>& dst) -> std::vector<double>& {
      return stage == 0 ? q_of(dst) : src;
    };

    // Every slot in one pass, reporting each slot once, in order, right
    // after its values are stored.
    std::vector<double> got = fresh_dst();
    std::vector<std::size_t> reported;
    const auto after = [&](std::size_t l) {
      EXPECT_TRUE(bitwise_equal(slab<const double>(got, l, n),
                                slab<const double>(want, l, n)))
          << "slot " << l;
      reported.push_back(l);
    };
    model.stage_elements(stage, h, tail(q_of(got)), tail(src_of(got)),
                         tail(got), elems, after);
    EXPECT_TRUE(bitwise_equal(got, want));
    ASSERT_EQ(reported.size(), nelem);
    for (std::size_t l = 0; l < nelem; ++l) EXPECT_EQ(reported[l], l);

    // One slot per call.
    std::vector<double> one = fresh_dst();
    for (std::size_t l = 0; l < nelem; ++l)
      model.stage_elements(stage, h, slab<const double>(q_of(one), l, n),
                           slab<const double>(src_of(one), l, n),
                           slab<double>(one, l, n),
                           std::span<const int>(&elems[l], 1));
    EXPECT_TRUE(bitwise_equal(one, want));

    // The serial pass over the global layout: slot e holds element e.
    std::vector<double> serial = fresh_dst();
    model.stage_pass(stage, h, tail(q_of(serial)), tail(src_of(serial)),
                     tail(serial));
    EXPECT_TRUE(bitwise_equal(serial, serial_want));
  }
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

TEST_P(GllKernel, SweStagePassesMatchOracleBitwise) {
  const int np = GetParam();
  const mesh::cubed_sphere m(2);
  const shallow_water_model model(m, np, {1.3, 0.7});
  const std::size_t n = static_cast<std::size_t>(np * np);
  const std::size_t nelem = static_cast<std::size_t>(m.num_elements());
  const double* D = model.rule().diff.data();
  const double h = 0.02 * np;
  // Start values q and stage sources src of (h, ux, uy, uz), each from an
  // odd offset; depth kept positive.
  using fields = std::vector<std::vector<double>>;
  fields q0, s0;
  for (unsigned f = 0; f < 4; ++f) {
    q0.push_back(random_values(
        1 + nelem * n, 71u + 8u * static_cast<unsigned>(np) + f));
    s0.push_back(random_values(
        1 + nelem * n, 75u + 8u * static_cast<unsigned>(np) + f));
  }
  for (double& depth : q0[0]) depth += 3.0;
  for (double& depth : s0[0]) depth += 3.0;
  std::vector<int> elems(nelem);
  for (std::size_t l = 0; l < nelem; ++l)
    elems[l] = static_cast<int>((5 * l + 2) % nelem);
  const auto at = [&](fields& v, std::size_t f, std::size_t l) {
    return slab<double>(v[f], l, n);
  };
  // rk3_fields over slot l of every field (or over every slot).
  const auto view = [&](fields& v, std::optional<std::size_t> l) {
    rk3_fields<4> out;
    for (std::size_t f = 0; f < 4; ++f)
      out[f] = l ? at(v, f, *l) : std::span<double>(v[f]).subspan(1);
    return out;
  };

  for (int stage = 0; stage < 3; ++stage) {
    SCOPED_TRACE("stage " + std::to_string(stage));
    fields q = q0;
    fields src = stage == 0 ? q0 : s0;
    fields want(4, std::vector<double>(1 + nelem * n, 0.0));
    for (std::size_t f = 0; f < 4; ++f) want[f][0] = stage == 2 ? q[f][0] : 0.0;
    fields r(4, std::vector<double>(n));
    for (std::size_t l = 0; l < nelem; ++l) {
      const shallow_water_model::node_data* nd =
          model.nodes().data() + static_cast<std::size_t>(elems[l]) * n;
      oracle_swe_rhs(D, nd, model.params().gravity, at(src, 0, l).data(),
                     at(src, 1, l).data(), at(src, 2, l).data(),
                     at(src, 3, l).data(), r[0].data(), r[1].data(),
                     r[2].data(), r[3].data(), np);
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t f = 0; f < 4; ++f)
          at(want, f, l)[k] = oracle_stage(stage, at(q, f, l)[k],
                                           at(src, f, l)[k], h * r[f][k]);
        oracle_project(nd[k].pos, at(want, 1, l)[k], at(want, 2, l)[k],
                       at(want, 3, l)[k]);
      }
    }

    // As in the advection case: stage 2 in place, stage 0 from src = q.
    const auto fresh_dst = [&] {
      return stage == 2 ? q : fields(4, std::vector<double>(q[0].size()));
    };
    const auto q_of = [&](fields& dst) -> fields& {
      return stage == 2 ? dst : q;
    };
    const auto src_of = [&](fields& dst) -> fields& {
      return stage == 0 ? q_of(dst) : src;
    };

    fields got = fresh_dst();
    std::size_t reported = 0;
    const auto after = [&](std::size_t l) {
      EXPECT_EQ(l, reported++);
      for (std::size_t f = 0; f < 4; ++f)
        EXPECT_TRUE(bitwise_equal(at(got, f, l), at(want, f, l)))
            << "field " << f << " slot " << l;
    };
    model.stage_elements(stage, h, view(q_of(got), std::nullopt),
                         view(src_of(got), std::nullopt),
                         view(got, std::nullopt), elems, after);
    EXPECT_EQ(reported, nelem);
    for (std::size_t f = 0; f < 4; ++f)
      EXPECT_TRUE(bitwise_equal(got[f], want[f])) << "field " << f;

    fields one = fresh_dst();
    for (std::size_t l = 0; l < nelem; ++l)
      model.stage_elements(stage, h, view(q_of(one), l), view(src_of(one), l),
                           view(one, l), std::span<const int>(&elems[l], 1));
    for (std::size_t f = 0; f < 4; ++f)
      EXPECT_TRUE(bitwise_equal(one[f], want[f])) << "field " << f;
  }
}

}  // namespace
