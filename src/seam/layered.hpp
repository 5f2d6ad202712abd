#pragma once
// Layered (multi-level) advection: nlev vertically stacked tracer layers,
// each transported by solid-body rotation whose rate varies with height
// (linear shear) — the structure that makes a climate dycore's per-element
// cost scale with nlev, exactly the knob the performance model charges for
// (seam_workload::nlev). Layers couple through nothing but shared geometry,
// so the per-step cost is nlev × the single-layer kernel plus one DSS per
// layer — matching the model's accounting.

#include <functional>
#include <span>
#include <vector>

#include "mesh/cubed_sphere.hpp"
#include "seam/advection.hpp"
#include "seam/rk3.hpp"

namespace sfp::seam {

class layered_advection {
 public:
  /// `omega0` is the mid-column rotation rate; level l rotates at
  /// omega0 · (1 + shear · (l/(nlev-1) − 1/2)) (uniform for nlev == 1).
  layered_advection(const mesh::cubed_sphere& mesh, int np, int nlev,
                    double omega0 = 1.0, double shear = 0.5);

  int nlev() const { return nlev_; }
  double omega_at(int level) const;

  /// Initialize every layer from a function of (position, level).
  void set_field(const std::function<double(mesh::vec3, int)>& f);

  std::span<const double> layer(int level) const;

  /// Advance all layers one SSP-RK3 step.
  void step(double dt);

  /// CFL limit of the fastest layer.
  double cfl_dt(double cfl = 0.4) const;

  /// Global tracer integral of one layer.
  double layer_mass(int level) const;

  const advection_model& base() const { return base_; }

 private:
  int nlev_;
  double omega0_, shear_;
  advection_model base_;  ///< omega = 1 geometry; layers scale its velocity
  std::vector<std::vector<double>> layers_;
  rk3_stages<1> stages_;
};

}  // namespace sfp::seam
