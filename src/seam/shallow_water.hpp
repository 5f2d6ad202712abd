#pragma once
// Shallow-water equations on the cubed-sphere with spectral elements — the
// equation set SEAM itself descends from (paper reference [9]: Taylor,
// Tribbia & Iskandarani, "The spectral element method for the shallow water
// equations on the sphere", JCP 1997).
//
// Formulation: Cartesian-vector form on the unit sphere. The velocity u is
// a 3-vector constrained to the tangent plane; h is the fluid depth:
//
//   du/dt = -(u·∇)u - f (p̂ × u) - g ∇h,   followed by tangent projection
//   dh/dt = -∇·(h u)
//
// with f = 2Ω p_z the Coriolis parameter. Horizontal operators are evaluated
// per element through the gnomonic metric (precomputed tangent bases,
// inverse metric, area Jacobian), SSP-RK3 in time, C0 continuity restored by
// DSS averaging after every stage — the same compute/exchange structure as
// the advection core, with four prognostic fields instead of one.

#include <functional>
#include <span>
#include <vector>

#include "mesh/cubed_sphere.hpp"
#include "seam/assembly.hpp"
#include "seam/gll.hpp"
#include "seam/rk3.hpp"

namespace sfp::seam {

struct swe_params {
  double gravity = 1.0;   ///< g
  double rotation = 1.0;  ///< planetary angular velocity Ω (about +z)
};

class shallow_water_model {
 public:
  /// `np` GLL points per element edge, in [2, max_np].
  shallow_water_model(const mesh::cubed_sphere& mesh, int np,
                      swe_params params = {});

  const gll_rule& rule() const { return rule_; }
  const assembly& dofs() const { return assembly_; }
  const swe_params& params() const { return params_; }

  /// Initialize depth and velocity from functions of the sphere position;
  /// the velocity is projected onto the tangent plane.
  void set_state(const std::function<double(mesh::vec3)>& depth,
                 const std::function<mesh::vec3(mesh::vec3)>& velocity);

  /// Williamson et al. (1992) test case 2: steady zonal geostrophic flow.
  /// u = u0 (ẑ × p),  g h = g h0 - (Ω u0 + u0²/2) p_z².
  /// An exact steady state of the continuous equations.
  void set_williamson2(double u0, double h0);

  std::span<const double> depth() const { return h_; }
  std::span<const double> velocity_x() const { return ux_; }
  std::span<const double> velocity_y() const { return uy_; }
  std::span<const double> velocity_z() const { return uz_; }

  /// Advance one SSP-RK3 step.
  void step(double dt);

  /// Stable timestep estimate from advective + gravity-wave speeds.
  double cfl_dt(double cfl = 0.3) const;

  // ---- per-element passes (the distributed runner's element pass) --------
  /// One element pass of ssp_rk3_step over a run of element slots, for the
  /// four fields (h, ux, uy, uz) at once: slot l — nodes [l·np², (l+1)·np²)
  /// of every span — holds element elems[l], in any field layout; the ids
  /// only select the geometry. Each node's tendency L(src) goes straight
  /// into dst = rk3_stage_value<stage>(q, src, h · L), and the node's
  /// velocity is then tangent-projected. Calls after_slot(l) right after
  /// slot l's stage values are stored. `dst` may be `q` and must not
  /// overlap `src`. Thread-safe.
  void stage_elements(int stage, double h, const rk3_fields<4>& q,
                      const rk3_fields<4>& src, const rk3_fields<4>& dst,
                      std::span<const int> elems,
                      slot_done after_slot = {}) const;

  // ---- diagnostics -------------------------------------------------------
  double mass() const;          ///< ∫ h dA (exactly conserved by flux form up
                                ///< to DSS/quadrature effects)
  double total_energy() const;  ///< ∫ (h|u|²/2 + g h²/2) dA
  /// L∞ error of depth against a reference function (steady-state tests).
  double depth_error(const std::function<double(mesh::vec3)>& reference) const;
  /// Largest |u·p̂| — tangency violation (should be ~0 after projection).
  double max_normal_velocity() const;
  /// Largest continuity gap across the four prognostic fields.
  double continuity_gap() const;

  /// Per-node geometry, precomputed once.
  struct node_data {
    mesh::vec3 pos;      ///< unit sphere position
    mesh::vec3 t_xi;     ///< tangent basis
    mesh::vec3 t_eta;
    double gi11, gi12, gi22;  ///< inverse metric
    double jac;               ///< |t_xi × t_eta|
    double coriolis;          ///< 2 Ω p_z
  };

  /// Every node's geometry, in the global field layout.
  std::span<const node_data> nodes() const { return nodes_; }

 private:
  int np_;
  swe_params params_;
  gll_rule rule_;
  assembly assembly_;
  std::vector<node_data> nodes_;

  std::vector<double> h_, ux_, uy_, uz_;
  rk3_stages<4> stages_;
};

}  // namespace sfp::seam
