#pragma once
// A passive-advection spectral-element dynamical core on the cubed-sphere —
// the mini-app stand-in for NCAR SEAM. Solid-body rotation transports a
// tracer field; each timestep runs the per-element tensor-product derivative
// kernel followed by the C0 direct-stiffness exchange, i.e. the same
// compute/communicate structure whose cost the partitioners are fighting
// over.

#include <functional>
#include <span>
#include <vector>

#include "mesh/cubed_sphere.hpp"
#include "seam/assembly.hpp"
#include "seam/gll.hpp"
#include "seam/rk3.hpp"

namespace sfp::seam {

/// Per-node geometry prepared once: sphere position, contravariant velocity
/// in element reference coordinates, and the area Jacobian.
struct node_geometry {
  std::vector<mesh::vec3> position;  ///< unit-sphere node positions
  std::vector<double> v_xi;          ///< contravariant velocity, xi component
  std::vector<double> v_eta;         ///< contravariant velocity, eta component
  std::vector<double> jacobian;      ///< |t_xi × t_eta| (area element)
};

/// Build node geometry for solid-body rotation with angular velocity `omega`
/// about the axis `axis` (default z — flow along circles of latitude).
node_geometry make_rotation_geometry(const mesh::cubed_sphere& mesh,
                                     const gll_rule& rule,
                                     double omega = 1.0,
                                     mesh::vec3 axis = {0, 0, 1});

/// The advection model: dq/dt = -v·∇q, SSP-RK3 in time, DSS averaging after
/// every stage to maintain C0 continuity.
class advection_model {
 public:
  /// `np` GLL points per element edge, in [2, max_np].
  advection_model(const mesh::cubed_sphere& mesh, int np, double omega = 1.0,
                  mesh::vec3 axis = {0, 0, 1});

  const gll_rule& rule() const { return rule_; }
  const assembly& dofs() const { return assembly_; }
  const node_geometry& geometry() const { return geometry_; }

  /// Initialize the tracer from a function of position on the unit sphere.
  void set_field(const std::function<double(mesh::vec3)>& f);

  std::span<const double> field() const { return field_; }
  std::span<double> mutable_field() { return field_; }

  /// Advance one SSP-RK3 step.
  void step(double dt);

  /// Largest stable timestep estimate: CFL * min node spacing / max speed.
  double cfl_dt(double cfl = 0.5) const;

  /// Global tracer integral ∫ q dA by per-element GLL quadrature.
  double mass() const;
  double max_abs() const;

  /// Tracer centroid ∫ q p dA / ∫ q dA — used to track a rotating blob.
  mesh::vec3 centroid() const;

  /// Evaluate the advective tendency -v·∇q of `q` into `out`
  /// (no DSS applied).
  void tendency(std::span<const double> q, std::span<double> out) const;

  /// One element pass of ssp_rk3_step over the global field layout: for
  /// every node, dst = rk3_stage_value<stage>(q, src, h · L(src)) with L
  /// the tendency, evaluated and stored element by element in one kernel
  /// pass (gll_advection_stage). `dst` may be `q`, and must not overlap
  /// `src`. No DSS applied.
  void stage_pass(int stage, double h, std::span<const double> q,
                  std::span<const double> src, std::span<double> dst) const;

  /// stage_pass over a run of element slots (a distributed rank steps only
  /// its owned elements): slot l — nodes [l·np², (l+1)·np²) of `q`, `src`
  /// and `dst` — holds element elems[l], in any field layout; the ids only
  /// select the geometry. Calls after_slot(l) right after slot l's stage
  /// values are stored. Thread-safe.
  void stage_elements(int stage, double h, std::span<const double> q,
                      std::span<const double> src, std::span<double> dst,
                      std::span<const int> elems,
                      slot_done after_slot = {}) const;

 private:
  int np_;
  gll_rule rule_;
  assembly assembly_;
  node_geometry geometry_;
  std::vector<double> field_;
  rk3_stages<1> stages_;
};

}  // namespace sfp::seam
