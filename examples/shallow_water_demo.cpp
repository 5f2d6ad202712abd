// Shallow-water demo: the equation set SEAM descends from (Taylor, Tribbia
// & Iskandarani 1997 — the paper's reference [9]) running on the
// cubed-sphere. Integrates Williamson test case 2 (steady geostrophic flow)
// and reports how well the discrete model holds the analytic steady state,
// plus mass/energy conservation.
//
//   ./shallow_water_demo [--ne=4] [--np=6] [--steps=100]
//
// --np is the GLL point count per element edge, in [2, 16].

#include <cstdio>

#include "mesh/cubed_sphere.hpp"
#include "seam/shallow_water.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace sfp;
  const cli_args args(argc, argv);
  const int ne = static_cast<int>(args.get_int_or("ne", 4));
  const int np = static_cast<int>(args.get_int_or("np", 6));
  const int steps = static_cast<int>(args.get_int_or("steps", 100));

  const mesh::cubed_sphere mesh(ne);
  seam::shallow_water_model model(mesh, np);
  const double u0 = 0.1, h0 = 10.0;
  model.set_williamson2(u0, h0);
  const auto reference = [&](mesh::vec3 p) {
    return h0 - (model.params().rotation * u0 + 0.5 * u0 * u0) * p.z * p.z /
                    model.params().gravity;
  };

  const double dt = model.cfl_dt(0.25);
  const double mass0 = model.mass();
  const double energy0 = model.total_energy();
  std::printf("Williamson TC2 on Ne=%d, np=%d (K=%d elements, %lld dofs), "
              "dt=%.4f\n",
              ne, np, mesh.num_elements(),
              static_cast<long long>(model.dofs().num_dofs()), dt);
  std::printf("%-8s %-14s %-14s %-14s\n", "step", "h error (Linf)",
              "mass drift", "energy drift");
  for (int s = 0; s <= steps; ++s) {
    if (s % (steps / 5 == 0 ? 1 : steps / 5) == 0) {
      std::printf("%-8d %-14.3e %-14.3e %-14.3e\n", s,
                  model.depth_error(reference),
                  (model.mass() - mass0) / mass0,
                  (model.total_energy() - energy0) / energy0);
    }
    if (s < steps) model.step(dt);
  }
  std::printf("\ntangency violation: %.2e, continuity gap: %.2e\n",
              model.max_normal_velocity(), model.continuity_gap());
  std::printf("The steady state holds to discretization error — the "
              "spectral element dynamical core works; partitioning it is "
              "what the rest of this library is about.\n");
  return 0;
}
