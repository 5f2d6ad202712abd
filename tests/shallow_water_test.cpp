// Tests for the shallow-water spectral-element solver: resting states,
// Williamson test case 2 (steady geostrophic flow), conservation, tangency,
// and continuity.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mesh/cubed_sphere.hpp"
#include "seam/shallow_water.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::seam;

TEST(ShallowWater, LakeAtRestStaysAtRest) {
  // h = const, u = 0 is an exact discrete steady state: all derivative
  // terms vanish node-wise.
  const mesh::cubed_sphere mesh(3);
  shallow_water_model model(mesh, 5);
  model.set_state([](mesh::vec3) { return 7.0; },
                  [](mesh::vec3) { return mesh::vec3{0, 0, 0}; });
  const double dt = model.cfl_dt(0.3);
  for (int s = 0; s < 10; ++s) model.step(dt);
  for (const double h : model.depth()) ASSERT_NEAR(h, 7.0, 1e-12);
  EXPECT_LE(model.max_normal_velocity(), 1e-12);
  for (const double u : model.velocity_x()) ASSERT_NEAR(u, 0.0, 1e-11);
}

TEST(ShallowWater, Williamson2IsSteady) {
  // Steady zonal geostrophic flow: the discrete solution should track the
  // analytic steady state with only spectral + time-integration error.
  const mesh::cubed_sphere mesh(4);
  shallow_water_model model(mesh, 6);
  const double u0 = 0.1, h0 = 10.0;
  model.set_williamson2(u0, h0);
  const auto reference = [&](mesh::vec3 p) {
    return h0 - (model.params().rotation * u0 + 0.5 * u0 * u0) * p.z * p.z /
                    model.params().gravity;
  };
  EXPECT_LE(model.depth_error(reference), 1e-12);  // exact at t = 0

  const double dt = model.cfl_dt(0.25);
  const int steps = 60;
  for (int s = 0; s < steps; ++s) model.step(dt);
  // Depth variation in the reference state is (Ωu0 + u0²/2) ≈ 0.105; demand
  // the drift stays far below it.
  EXPECT_LE(model.depth_error(reference), 2e-4)
      << "steady state drifted after " << steps << " steps of dt=" << dt;
  EXPECT_LE(model.max_normal_velocity(), 1e-12);
  EXPECT_LE(model.continuity_gap(), 1e-12);
}

TEST(ShallowWater, Williamson2ConvergesWithOrder) {
  // Spatial refinement (higher np) must reduce the steady-state drift.
  const double u0 = 0.1, h0 = 10.0;
  double prev_error = 0;
  int idx = 0;
  for (const int np : {4, 6, 8}) {
    const mesh::cubed_sphere mesh(3);
    shallow_water_model model(mesh, np);
    model.set_williamson2(u0, h0);
    const auto reference = [&](mesh::vec3 p) {
      return h0 - (model.params().rotation * u0 + 0.5 * u0 * u0) * p.z *
                      p.z / model.params().gravity;
    };
    const double t_end = 0.05;
    const double dt = model.cfl_dt(0.2);
    const int steps = static_cast<int>(t_end / dt) + 1;
    for (int s = 0; s < steps; ++s) model.step(t_end / steps);
    const double err = model.depth_error(reference);
    if (idx > 0) {
      EXPECT_LT(err, 0.75 * prev_error) << "np=" << np;
    }
    prev_error = err;
    ++idx;
  }
}

TEST(ShallowWater, MassConservedByFluxForm) {
  const mesh::cubed_sphere mesh(3);
  shallow_water_model model(mesh, 6);
  // A non-trivial unsteady state: bumpy depth, rotating flow.
  model.set_state(
      [](mesh::vec3 p) { return 10.0 + 0.1 * p.x + 0.05 * p.y * p.z; },
      [](mesh::vec3 p) { return mesh::vec3{-0.1 * p.y, 0.1 * p.x, 0.0}; });
  const double m0 = model.mass();
  const double dt = model.cfl_dt(0.25);
  for (int s = 0; s < 40; ++s) model.step(dt);
  EXPECT_NEAR(model.mass(), m0, 2e-5 * std::abs(m0));
}

TEST(ShallowWater, MassOfUniformDepthIsAreaTimesDepth) {
  const mesh::cubed_sphere mesh(2);
  shallow_water_model model(mesh, 6);
  model.set_state([](mesh::vec3) { return 3.0; },
                  [](mesh::vec3) { return mesh::vec3{0, 0, 0}; });
  EXPECT_NEAR(model.mass(), 3.0 * 4.0 * std::numbers::pi, 1e-5);
}

TEST(ShallowWater, EnergyBoundedOnUnsteadyFlow) {
  // Total energy is conserved by the continuous equations; the discrete
  // advective form drifts slightly but must not grow systematically.
  const mesh::cubed_sphere mesh(3);
  shallow_water_model model(mesh, 6);
  model.set_state(
      [](mesh::vec3 p) { return 10.0 + 0.2 * p.z * p.z; },
      [](mesh::vec3 p) { return mesh::vec3{-0.2 * p.y, 0.2 * p.x, 0.0}; });
  const double e0 = model.total_energy();
  const double dt = model.cfl_dt(0.25);
  for (int s = 0; s < 40; ++s) model.step(dt);
  EXPECT_NEAR(model.total_energy(), e0, 1e-3 * std::abs(e0));
}

TEST(ShallowWater, GravityWaveRadiatesFromBump) {
  // Drop a height bump on a resting fluid: the depth extremum at the bump
  // must decrease as waves carry energy away (and nothing blows up).
  const mesh::cubed_sphere mesh(3);
  shallow_water_model model(mesh, 6, {/*gravity=*/1.0, /*rotation=*/0.0});
  model.set_state(
      [](mesh::vec3 p) {
        const double d2 = (p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z;
        return 5.0 + 0.5 * std::exp(-10.0 * d2);
      },
      [](mesh::vec3) { return mesh::vec3{0, 0, 0}; });
  double max0 = 0;
  for (const double h : model.depth()) max0 = std::max(max0, h);
  const double dt = model.cfl_dt(0.25);
  for (int s = 0; s < 60; ++s) model.step(dt);
  double max1 = 0, min1 = 1e9;
  for (const double h : model.depth()) {
    max1 = std::max(max1, h);
    min1 = std::min(min1, h);
  }
  EXPECT_LT(max1, max0);       // bump disperses
  EXPECT_GT(max1, 5.0);        // but fluid remains perturbed
  EXPECT_GT(min1, 4.0);        // no blow-up / drainage
  EXPECT_LE(model.continuity_gap(), 1e-12);
}

TEST(ShallowWater, CoriolisDeflectsFlow) {
  // A meridional (pole-ward) jet on a rotating sphere is deflected and
  // develops a zonal component; without rotation it stays meridional far
  // longer. Measure mean |u·east| away from the poles after a few steps.
  const auto mean_zonal_speed = [](double rotation) {
    const mesh::cubed_sphere mesh(3);
    shallow_water_model model(mesh, 5, {1.0, rotation});
    model.set_state([](mesh::vec3) { return 10.0; },
                    [](mesh::vec3 p) {
                      const mesh::vec3 east{-p.y, p.x, 0};
                      const mesh::vec3 north = mesh::cross(p, east);
                      return 0.05 * north;  // meridional jet
                    });
    const double dt = model.cfl_dt(0.25);
    for (int s = 0; s < 20; ++s) model.step(dt);
    const auto ux = model.velocity_x();
    const auto uy = model.velocity_y();
    // Zonal component = (p × u)·ẑ / (distance from axis); use the
    // z-angular-momentum density x·u_y − y·u_x, which is exactly zero for
    // the initial meridional jet.
    double proxy = 0;
    for (std::size_t k = 0; k < ux.size(); ++k) {
      const mesh::vec3 p = model.nodes()[k].pos;
      proxy += std::abs(p.x * uy[k] - p.y * ux[k]);
    }
    return proxy / static_cast<double>(ux.size());
  };
  const double with_rotation = mean_zonal_speed(5.0);
  const double without = mean_zonal_speed(0.0);
  EXPECT_GT(with_rotation, 3.0 * without + 1e-5);
}

TEST(ShallowWater, Preconditions) {
  const mesh::cubed_sphere mesh(2);
  EXPECT_THROW(shallow_water_model(mesh, 4, {-1.0, 1.0}), contract_error);
  shallow_water_model model(mesh, 4);
  EXPECT_THROW(model.step(-0.1), contract_error);
  EXPECT_THROW(model.cfl_dt(0.0), contract_error);
}

TEST(ShallowWater, RejectsNpAboveMaxNp) {
  const mesh::cubed_sphere mesh(2);
  EXPECT_THROW(shallow_water_model(mesh, max_np + 1), contract_error);
  EXPECT_THROW(shallow_water_model(mesh, 1), contract_error);
  EXPECT_NO_THROW(shallow_water_model(mesh, max_np));
}

}  // namespace
