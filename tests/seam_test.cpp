// Tests for the SEAM mini-app substrate: GLL quadrature/differentiation,
// global DOF assembly + DSS, the advection dynamical core, and the
// distributed runner's equivalence with serial execution.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>
#include <vector>

#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/partitioner.hpp"
#include "seam/advection.hpp"
#include "seam/assembly.hpp"
#include "seam/distributed.hpp"
#include "seam/gll.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::seam;

// ---- GLL ---------------------------------------------------------------------

class GllRule : public ::testing::TestWithParam<int> {};

TEST_P(GllRule, NodesSortedSymmetricWithEndpoints) {
  const auto rule = make_gll(GetParam());
  const int np = rule.np();
  EXPECT_DOUBLE_EQ(rule.nodes.front(), -1.0);
  EXPECT_DOUBLE_EQ(rule.nodes.back(), 1.0);
  for (int i = 1; i < np; ++i)
    EXPECT_LT(rule.nodes[static_cast<std::size_t>(i - 1)],
              rule.nodes[static_cast<std::size_t>(i)]);
  for (int i = 0; i < np; ++i) {
    EXPECT_NEAR(rule.nodes[static_cast<std::size_t>(i)],
                -rule.nodes[static_cast<std::size_t>(np - 1 - i)], 1e-14);
    EXPECT_NEAR(rule.weights[static_cast<std::size_t>(i)],
                rule.weights[static_cast<std::size_t>(np - 1 - i)], 1e-14);
    EXPECT_GT(rule.weights[static_cast<std::size_t>(i)], 0.0);
  }
}

TEST_P(GllRule, WeightsSumToTwo) {
  const auto rule = make_gll(GetParam());
  double sum = 0;
  for (const double w : rule.weights) sum += w;
  EXPECT_NEAR(sum, 2.0, 1e-13);
}

TEST_P(GllRule, QuadratureExactForDegree2NpMinus3) {
  const auto rule = make_gll(GetParam());
  const int np = rule.np();
  // ∫_{-1}^{1} x^d dx = 0 (odd) or 2/(d+1) (even), exact for d <= 2np-3.
  for (int d = 0; d <= 2 * np - 3; ++d) {
    double acc = 0;
    for (int i = 0; i < np; ++i)
      acc += rule.weights[static_cast<std::size_t>(i)] *
             std::pow(rule.nodes[static_cast<std::size_t>(i)], d);
    const double exact = (d % 2 == 1) ? 0.0 : 2.0 / (d + 1);
    EXPECT_NEAR(acc, exact, 1e-12) << "np=" << np << " degree " << d;
  }
}

TEST_P(GllRule, DifferentiationExactForPolynomials) {
  const auto rule = make_gll(GetParam());
  const int np = rule.np();
  // D must differentiate x^d exactly for d <= np-1.
  for (int d = 0; d < np; ++d) {
    std::vector<double> q(static_cast<std::size_t>(np));
    for (int i = 0; i < np; ++i)
      q[static_cast<std::size_t>(i)] =
          std::pow(rule.nodes[static_cast<std::size_t>(i)], d);
    for (int i = 0; i < np; ++i) {
      double der = 0;
      for (int m = 0; m < np; ++m)
        der += rule.diff[static_cast<std::size_t>(i * np + m)] *
               q[static_cast<std::size_t>(m)];
      const double exact =
          d == 0 ? 0.0
                 : d * std::pow(rule.nodes[static_cast<std::size_t>(i)], d - 1);
      EXPECT_NEAR(der, exact, 1e-10) << "np=" << np << " degree " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, GllRule, ::testing::Values(2, 3, 4, 5, 8, 12),
                         ::testing::PrintToStringParamName());

TEST(Gll, RejectsTooFewPoints) {
  EXPECT_THROW(make_gll(1), contract_error);
}

TEST(Gll, LegendreKnownValues) {
  EXPECT_DOUBLE_EQ(legendre(0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(legendre(1, 0.3), 0.3);
  EXPECT_NEAR(legendre(2, 0.5), 0.5 * (3 * 0.25 - 1), 1e-15);
  EXPECT_NEAR(legendre(5, 1.0), 1.0, 1e-15);  // P_n(1) = 1
}

// ---- assembly ------------------------------------------------------------------

class Assembly : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Assembly, DofCountMatchesClosedSurfaceFormula) {
  const auto [ne, np] = GetParam();
  const mesh::cubed_sphere m(ne);
  const assembly a(m, np);
  // Closed quad surface: V - E + F = 2 with F = 6 Ne², E = 2 F, V = F + 2.
  // Dofs: F·(np-2)² interior + E·(np-2) edge + V corner.
  const std::int64_t faces = 6LL * ne * ne;
  const std::int64_t edges = 2 * faces;
  const std::int64_t verts = faces + 2;
  const std::int64_t inner = static_cast<std::int64_t>(np - 2) * (np - 2);
  EXPECT_EQ(a.num_dofs(), faces * inner + edges * (np - 2) + verts);
}

TEST_P(Assembly, MultiplicitiesAreConsistent) {
  const auto [ne, np] = GetParam();
  const mesh::cubed_sphere m(ne);
  const assembly a(m, np);
  std::int64_t total = 0;
  for (std::int64_t d = 0; d < a.num_dofs(); ++d) {
    const int mult = a.multiplicity(d);
    EXPECT_TRUE(mult == 1 || mult == 2 || mult == 3 || mult == 4)
        << "dof " << d;
    total += mult;
  }
  EXPECT_EQ(total, a.field_size());
}

INSTANTIATE_TEST_SUITE_P(Cases, Assembly,
                         ::testing::Values(std::pair(1, 4), std::pair(2, 2),
                                           std::pair(2, 4), std::pair(3, 5),
                                           std::pair(4, 8)));

TEST(AssemblyDss, SharedNodesAgreeForSmoothField) {
  // Evaluating a smooth function of position gives identical values on all
  // copies of a shared node — the assembly must see zero continuity gap.
  const mesh::cubed_sphere m(3);
  const advection_model model(m, 5);
  // set_field evaluates f(position) then averages; gap must be ~0 even
  // before averaging, but after it must be exactly representable.
  EXPECT_LE(model.dofs().continuity_gap(model.field()), 1e-15);
}

TEST(AssemblyDss, AverageProjectsAndIsIdempotent) {
  const mesh::cubed_sphere m(2);
  const assembly a(m, 4);
  std::vector<double> f(static_cast<std::size_t>(a.field_size()));
  for (std::size_t i = 0; i < f.size(); ++i)
    f[i] = static_cast<double>(i % 17) - 8.0;  // discontinuous junk
  EXPECT_GT(a.continuity_gap(f), 0.0);
  a.dss_average(f);
  EXPECT_LE(a.continuity_gap(f), 1e-12);
  std::vector<double> g = f;
  a.dss_average(g);
  for (std::size_t i = 0; i < f.size(); ++i) ASSERT_NEAR(g[i], f[i], 1e-15);
}

TEST(AssemblyDss, SumEqualsAverageTimesMultiplicity) {
  const mesh::cubed_sphere m(2);
  const assembly a(m, 3);
  std::vector<double> f(static_cast<std::size_t>(a.field_size()), 1.0);
  a.dss_sum(f);
  // Every node's value becomes its dof's multiplicity.
  for (int e = 0; e < a.num_elements(); ++e)
    for (int j = 0; j < 3; ++j)
      for (int i = 0; i < 3; ++i) {
        const auto idx = static_cast<std::size_t>((e * 3 + j) * 3 + i);
        EXPECT_DOUBLE_EQ(f[idx],
                         static_cast<double>(a.multiplicity(a.dof_of(e, i, j))));
      }
}

// ---- advection ------------------------------------------------------------------

TEST(Advection, ConstantFieldIsExactlySteady) {
  const mesh::cubed_sphere m(3);
  advection_model model(m, 5);
  model.set_field([](mesh::vec3) { return 4.25; });
  const double dt = model.cfl_dt();
  for (int s = 0; s < 5; ++s) model.step(dt);
  for (const double v : model.field()) ASSERT_DOUBLE_EQ(v, 4.25);
}

TEST(Advection, StableAndContinuousOverManySteps) {
  const mesh::cubed_sphere m(3);
  advection_model model(m, 5);
  model.set_field([](mesh::vec3 p) {
    return std::exp(-8.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
  });
  const double initial_max = model.max_abs();
  const double dt = model.cfl_dt(0.4);
  for (int s = 0; s < 50; ++s) model.step(dt);
  EXPECT_LE(model.dofs().continuity_gap(model.field()), 1e-12);
  EXPECT_LT(model.max_abs(), 1.5 * initial_max);  // no blow-up
  EXPECT_GT(model.max_abs(), 0.2 * initial_max);  // no collapse
}

TEST(Advection, BlobRotatesTheRightWay) {
  // Solid-body rotation about +z moves a blob at (1,0,0) toward +y.
  const mesh::cubed_sphere m(4);
  advection_model model(m, 6, /*omega=*/1.0);
  model.set_field([](mesh::vec3 p) {
    return std::exp(-12.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
  });
  const mesh::vec3 c0 = model.centroid();
  EXPECT_GT(c0.x, 0.8);
  EXPECT_NEAR(c0.y, 0.0, 0.05);
  const double dt = model.cfl_dt(0.4);
  const double target_angle = 0.3;  // radians of rotation
  const int steps = static_cast<int>(target_angle / dt) + 1;
  for (int s = 0; s < steps; ++s) model.step(dt);
  const mesh::vec3 c1 = model.centroid();
  const double angle = std::atan2(c1.y, c1.x);
  EXPECT_GT(angle, 0.15);
  EXPECT_LT(angle, 0.5);
  EXPECT_NEAR(c1.z, 0.0, 0.05);  // stays on the equator
}

TEST(Advection, MassApproximatelyConserved) {
  // Advective-form transport with DSS is not exactly conservative, but for
  // smooth solid-body rotation the drift over a short integration must be
  // tiny relative to the total.
  const mesh::cubed_sphere m(3);
  advection_model model(m, 6);
  model.set_field([](mesh::vec3 p) { return 2.0 + p.x + 0.5 * p.y * p.z; });
  const double m0 = model.mass();
  const double dt = model.cfl_dt(0.3);
  for (int s = 0; s < 30; ++s) model.step(dt);
  EXPECT_NEAR(model.mass(), m0, 5e-3 * std::abs(m0));
}

TEST(Advection, MassOfConstantEqualsSphereArea) {
  const mesh::cubed_sphere m(3);
  advection_model model(m, 6);
  model.set_field([](mesh::vec3) { return 1.0; });
  EXPECT_NEAR(model.mass(), 4.0 * std::numbers::pi, 1e-6);
}

// ---- distributed -----------------------------------------------------------------

class DistributedRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistributedRanks, MatchesSerialExecution) {
  const int nranks = GetParam();
  const mesh::cubed_sphere m(2);  // 24 elements
  advection_model model(m, 4);
  model.set_field([](mesh::vec3 p) { return p.x * p.x + 0.3 * p.y - p.z; });
  const double dt = model.cfl_dt(0.4);
  const int nsteps = 8;

  const auto part = core::sfc_partition(m, nranks);
  dist_stats stats;
  const auto dist_field = run_distributed(model, part, dt, nsteps, &stats);

  advection_model serial = std::move(model);
  for (int s = 0; s < nsteps; ++s) serial.step(dt);

  ASSERT_EQ(dist_field.size(), serial.field().size());
  double max_diff = 0;
  for (std::size_t i = 0; i < dist_field.size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(dist_field[i] - serial.field()[i]));
  EXPECT_LT(max_diff, 1e-12) << "ranks=" << nranks;

  if (nranks > 1) {
    EXPECT_GT(stats.messages, 0);
    EXPECT_GT(stats.doubles_sent, 0);
  } else {
    EXPECT_EQ(stats.messages, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistributedRanks,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 24),
                         ::testing::PrintToStringParamName());

TEST(Distributed, EquiangularMeshAlsoWorks) {
  // The distributed runner and the metric terms are projection-aware.
  const mesh::cubed_sphere m(2, mesh::projection::equiangular);
  advection_model model(m, 4);
  model.set_field([](mesh::vec3 p) { return p.x + 0.2 * p.z; });
  const double dt = model.cfl_dt(0.4);
  const auto part = core::sfc_partition(m, 6);
  const auto dist_field = run_distributed(model, part, dt, 5);

  advection_model serial = std::move(model);
  for (int s = 0; s < 5; ++s) serial.step(dt);
  double max_diff = 0;
  for (std::size_t i = 0; i < dist_field.size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(dist_field[i] - serial.field()[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(Distributed, MgpPartitionAlsoWorks) {
  // The distributed runner is partitioner-agnostic: run with a KWAY
  // partition too.
  const mesh::cubed_sphere m(2);
  advection_model model(m, 3);
  model.set_field([](mesh::vec3 p) { return p.z; });
  const double dt = model.cfl_dt(0.4);
  mgp::options opt;
  opt.algo = mgp::method::kway;
  const auto part = mgp::partition_graph(m.dual_graph(), 5, opt);
  const auto dist_field = run_distributed(model, part, dt, 4);

  advection_model serial = std::move(model);
  for (int s = 0; s < 4; ++s) serial.step(dt);
  double max_diff = 0;
  for (std::size_t i = 0; i < dist_field.size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(dist_field[i] - serial.field()[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(Advection, RejectsNpAboveMaxNp) {
  const mesh::cubed_sphere m(2);
  EXPECT_THROW(advection_model(m, max_np + 1), contract_error);
  EXPECT_THROW(advection_model(m, 1), contract_error);
  EXPECT_NO_THROW(advection_model(m, max_np));
}

TEST(Distributed, Preconditions) {
  const mesh::cubed_sphere m(2);
  advection_model model(m, 3);
  model.set_field([](mesh::vec3) { return 1.0; });
  const auto part = core::sfc_partition(m, 4);
  EXPECT_THROW(run_distributed(model, part, -0.1, 1), contract_error);
  EXPECT_THROW(run_distributed(model, part, 0.1, -1), contract_error);
}

}  // namespace
