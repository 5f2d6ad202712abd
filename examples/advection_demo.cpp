// Distributed climate-kernel demo: runs the spectral-element advection
// mini-app (a rotating Gaussian blob) distributed across virtual ranks under
// an SFC partition, verifies the result against serial execution, and
// reports the communication the partition induced.
//
//   ./advection_demo [--ne=4] [--np=6] [--ranks=8] [--steps=20]
//
// --np is the GLL point count per element edge, in [2, 16].

#include <cmath>
#include <cstdio>

#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/metrics.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace sfp;
  const cli_args args(argc, argv);
  const int ne = static_cast<int>(args.get_int_or("ne", 4));
  const int np = static_cast<int>(args.get_int_or("np", 6));
  const int ranks = static_cast<int>(args.get_int_or("ranks", 8));
  const int steps = static_cast<int>(args.get_int_or("steps", 20));

  const mesh::cubed_sphere mesh(ne);
  std::printf("mesh: Ne=%d (K=%d elements), np=%d GLL points/edge, "
              "%d virtual ranks, %d steps\n",
              ne, mesh.num_elements(), np, ranks, steps);

  seam::advection_model model(mesh, np);
  model.set_field([](mesh::vec3 p) {
    return std::exp(-12.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
  });
  const double dt = model.cfl_dt(0.4);
  const double mass0 = model.mass();
  const mesh::vec3 c0 = model.centroid();
  std::printf("initial blob centroid: (%.3f, %.3f, %.3f), mass %.6f\n",
              c0.x, c0.y, c0.z, mass0);

  const auto part = core::sfc_partition(mesh, ranks);
  seam::dist_stats stats;
  const auto dist_field =
      seam::run_distributed(model, part, dt, steps, &stats);

  // Serial reference for verification.
  for (int s = 0; s < steps; ++s) model.step(dt);
  double max_diff = 0;
  for (std::size_t i = 0; i < dist_field.size(); ++i)
    max_diff =
        std::max(max_diff, std::abs(dist_field[i] - model.field()[i]));

  const mesh::vec3 c1 = model.centroid();
  std::printf("after %d steps (dt=%.4f): centroid (%.3f, %.3f, %.3f), "
              "rotated %.3f rad, mass drift %.2e\n",
              steps, dt, c1.x, c1.y, c1.z, std::atan2(c1.y, c1.x),
              (model.mass() - mass0) / mass0);
  std::printf("distributed vs serial max difference: %.2e %s\n", max_diff,
              max_diff < 1e-12 ? "(bit-level agreement)" : "");
  std::printf("communication: %lld messages, %.1f KB payload total, "
              "%.1f ms compute / %.1f ms exchange across ranks\n",
              static_cast<long long>(stats.messages),
              static_cast<double>(stats.doubles_sent) * 8.0 / 1024.0,
              stats.compute_seconds * 1e3, stats.exchange_seconds * 1e3);
  return max_diff < 1e-9 ? 0 : 2;
}
