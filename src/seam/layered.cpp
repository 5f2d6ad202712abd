#include "seam/layered.hpp"

#include <algorithm>
#include <cmath>
#include <ranges>

#include "util/contract.hpp"

namespace sfp::seam {

layered_advection::layered_advection(const mesh::cubed_sphere& mesh, int np,
                                     int nlev, double omega0, double shear)
    : nlev_(nlev),
      omega0_(omega0),
      shear_(shear),
      base_(mesh, np, 1.0),
      stages_(base_.field().size()) {
  SFP_REQUIRE(nlev >= 1, "need at least one layer");
  SFP_REQUIRE(omega0 != 0.0, "rotation rate must be non-zero");
  layers_.assign(static_cast<std::size_t>(nlev),
                 std::vector<double>(base_.field().size(), 0.0));
}

double layered_advection::omega_at(int level) const {
  SFP_REQUIRE(level >= 0 && level < nlev_, "level out of range");
  if (nlev_ == 1) return omega0_;
  const double frac = static_cast<double>(level) / (nlev_ - 1) - 0.5;
  return omega0_ * (1.0 + shear_ * frac);
}

void layered_advection::set_field(
    const std::function<double(mesh::vec3, int)>& f) {
  for (int l = 0; l < nlev_; ++l) {
    auto& layer = layers_[static_cast<std::size_t>(l)];
    for (std::size_t k = 0; k < layer.size(); ++k)
      layer[k] = f(base_.geometry().position[k], l);
    base_.dofs().dss_average(layer);
  }
}

std::span<const double> layered_advection::layer(int level) const {
  SFP_REQUIRE(level >= 0 && level < nlev_, "level out of range");
  return layers_[static_cast<std::size_t>(level)];
}

void layered_advection::step(double dt) {
  SFP_REQUIRE(dt > 0, "timestep must be positive");
  const auto nodes = std::views::iota(std::size_t{0}, base_.field().size());
  for (int l = 0; l < nlev_; ++l) {
    // omega_at scales the base (omega = 1) velocity, so it scales the step.
    ssp_rk3_step(
        rk3_fields<1>{layers_[static_cast<std::size_t>(l)]}, stages_, nodes,
        dt * omega_at(l),
        [&](const rk3_fields<1>& src, const rk3_fields<1>& dst) {
          base_.tendency(src[0], dst[0]);
        },
        [&](const rk3_fields<1>& f) { base_.dofs().dss_average(f[0]); });
  }
}

double layered_advection::cfl_dt(double cfl) const {
  double w_max = 0;
  for (int l = 0; l < nlev_; ++l)
    w_max = std::max(w_max, std::abs(omega_at(l)));
  SFP_REQUIRE(w_max > 0, "flow is everywhere zero");
  return base_.cfl_dt(cfl) / w_max;
}

double layered_advection::layer_mass(int level) const {
  SFP_REQUIRE(level >= 0 && level < nlev_, "level out of range");
  const auto& q = layers_[static_cast<std::size_t>(level)];
  const auto& geom = base_.geometry();
  const auto& rule = base_.rule();
  const int np = rule.np();
  double total = 0;
  for (std::size_t k = 0; k < q.size(); ++k) {
    const int i = static_cast<int>(k % static_cast<std::size_t>(np));
    const int j = static_cast<int>((k / static_cast<std::size_t>(np)) %
                                   static_cast<std::size_t>(np));
    total += rule.weights[static_cast<std::size_t>(i)] *
             rule.weights[static_cast<std::size_t>(j)] * geom.jacobian[k] *
             q[k];
  }
  return total;
}

}  // namespace sfp::seam
