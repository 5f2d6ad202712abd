// Tests for the layered (multi-level) advection substrate.

#include <gtest/gtest.h>

#include <cmath>

#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"
#include "seam/exchange.hpp"
#include "seam/layered.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::seam;

TEST(Layered, ShearProfileIsLinearAndCentered) {
  const mesh::cubed_sphere m(2);
  const layered_advection model(m, 3, 5, /*omega0=*/2.0, /*shear=*/0.5);
  EXPECT_DOUBLE_EQ(model.omega_at(2), 2.0);        // mid column
  EXPECT_DOUBLE_EQ(model.omega_at(0), 2.0 * 0.75);  // bottom: 1 - 0.25
  EXPECT_DOUBLE_EQ(model.omega_at(4), 2.0 * 1.25);  // top: 1 + 0.25
  EXPECT_THROW(model.omega_at(5), contract_error);
}

TEST(Layered, SingleLevelMatchesPlainModel) {
  const mesh::cubed_sphere m(2);
  layered_advection stacked(m, 4, 1, 1.0, 0.0);
  advection_model plain(m, 4, 1.0);
  const auto init = [](mesh::vec3 p) { return p.x + 0.5 * p.y * p.z; };
  stacked.set_field([&](mesh::vec3 p, int) { return init(p); });
  plain.set_field(init);
  const double dt = plain.cfl_dt(0.4);
  for (int s = 0; s < 5; ++s) {
    stacked.step(dt);
    plain.step(dt);
  }
  const auto a = stacked.layer(0);
  const auto b = plain.field();
  double max_diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  EXPECT_LT(max_diff, 1e-13);
}

TEST(Layered, LayersRotateAtTheirOwnRates) {
  // After the same wall time, the top layer's blob must lead the bottom
  // layer's in rotation angle (shear).
  const mesh::cubed_sphere m(4);
  layered_advection model(m, 5, 3, 1.0, 1.0);  // omega: 0.5, 1.0, 1.5
  model.set_field([](mesh::vec3 p, int) {
    return std::exp(-10.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
  });
  const double dt = model.cfl_dt(0.3);
  const int steps = static_cast<int>(0.4 / dt) + 1;
  for (int s = 0; s < steps; ++s) model.step(dt);

  const auto angle_of_layer = [&](int l) {
    // Tracer-weighted centroid angle from the layer data.
    const auto q = model.layer(l);
    const auto& pos = model.base().geometry().position;
    double cx = 0, cy = 0, total = 0;
    for (std::size_t k = 0; k < q.size(); ++k) {
      cx += q[k] * pos[k].x;
      cy += q[k] * pos[k].y;
      total += q[k];
    }
    return std::atan2(cy / total, cx / total);
  };
  const double bottom = angle_of_layer(0);
  const double middle = angle_of_layer(1);
  const double top = angle_of_layer(2);
  EXPECT_GT(middle, bottom + 0.05);
  EXPECT_GT(top, middle + 0.05);
}

TEST(Layered, EachLayerMassStable) {
  const mesh::cubed_sphere m(3);
  layered_advection model(m, 5, 4, 1.0, 0.5);
  model.set_field(
      [](mesh::vec3 p, int l) { return 1.0 + 0.1 * l + 0.2 * p.x; });
  std::vector<double> m0;
  for (int l = 0; l < 4; ++l) m0.push_back(model.layer_mass(l));
  const double dt = model.cfl_dt(0.3);
  for (int s = 0; s < 20; ++s) model.step(dt);
  for (int l = 0; l < 4; ++l)
    EXPECT_NEAR(model.layer_mass(l), m0[static_cast<std::size_t>(l)],
                5e-3 * std::abs(m0[static_cast<std::size_t>(l)]))
        << "layer " << l;
}

TEST(Layered, ConstantLayersStaySeparate) {
  // No inter-layer coupling: distinct constants remain exactly distinct.
  const mesh::cubed_sphere m(2);
  layered_advection model(m, 4, 3, 1.0, 0.5);
  model.set_field([](mesh::vec3, int l) { return static_cast<double>(l); });
  const double dt = model.cfl_dt(0.4);
  for (int s = 0; s < 6; ++s) model.step(dt);
  for (int l = 0; l < 3; ++l)
    for (const double v : model.layer(l))
      ASSERT_DOUBLE_EQ(v, static_cast<double>(l));
}

TEST(Layered, DistributedMatchesSerialAndVolumeScalesWithNlev) {
  const mesh::cubed_sphere m(2);
  const int nlev = 3, nsteps = 4, nranks = 6;
  layered_advection model(m, 4, nlev, 1.0, 0.6);
  model.set_field([](mesh::vec3 p, int l) {
    return p.x * (1 + l) + 0.2 * p.y - 0.1 * l * p.z;
  });
  const double dt = model.cfl_dt(0.3);
  const auto part = core::sfc_partition(m, nranks);

  dist_stats stats;
  const auto dist = run_distributed_layered(model, part, dt, nsteps, &stats);

  layered_advection serial = std::move(model);
  for (int s = 0; s < nsteps; ++s) serial.step(dt);

  ASSERT_EQ(dist.size(), static_cast<std::size_t>(nlev));
  for (int l = 0; l < nlev; ++l) {
    const auto ref = serial.layer(l);
    double max_diff = 0;
    for (std::size_t i = 0; i < ref.size(); ++i)
      max_diff = std::max(
          max_diff, std::abs(dist[static_cast<std::size_t>(l)][i] - ref[i]));
    EXPECT_LT(max_diff, 1e-12) << "layer " << l;
  }

  // Wire volume: 3 RK stages per step per layer, each one full exchange.
  const auto plan = exchange_plan::build(serial.base().dofs(), part);
  EXPECT_EQ(stats.doubles_sent,
            3LL * nsteps * nlev * plan.total_exchange_volume());
}

TEST(Layered, Preconditions) {
  const mesh::cubed_sphere m(2);
  EXPECT_THROW(layered_advection(m, 4, 0), contract_error);
  EXPECT_THROW(layered_advection(m, 4, 3, 0.0), contract_error);
  layered_advection model(m, 4, 2);
  EXPECT_THROW(model.step(0.0), contract_error);
  EXPECT_THROW(model.layer(2), contract_error);
  EXPECT_THROW(model.layer_mass(-1), contract_error);
}

}  // namespace
