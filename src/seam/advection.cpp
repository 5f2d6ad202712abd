#include "seam/advection.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace sfp::seam {

namespace {

/// Un-normalized cube-surface position and its (a, b) face-coordinate
/// tangents for node (xi, eta) of an element.
struct cube_point {
  mesh::vec3 P;   // on the cube surface
  mesh::vec3 ta;  // dp/da of the *sphere* point (a = face coordinate)
  mesh::vec3 tb;  // dp/db
  mesh::vec3 p;   // normalized (on the sphere)
};

cube_point eval_cube_point(const mesh::cubed_sphere& mesh, int elem,
                           double xi, double eta) {
  const mesh::element_ref r = mesh.element_of(elem);
  const auto f = mesh::cubed_sphere::frame_of_face(r.face);
  const int ne = mesh.ne();
  // Abstract face coordinates, then the mesh's projection mapping (identity
  // for equidistant, tan(·π/4) for equiangular) with its chain-rule factor.
  const double a_raw = (2.0 * (r.i + 0.5 * (xi + 1.0)) - ne) / ne;
  const double b_raw = (2.0 * (r.j + 0.5 * (eta + 1.0)) - ne) / ne;
  const double a = mesh.map_face_coord(a_raw);
  const double b = mesh.map_face_coord(b_raw);
  const double da = mesh.map_face_coord_deriv(a_raw);
  const double db = mesh.map_face_coord_deriv(b_raw);
  cube_point out;
  out.P = f.center + a * f.u + b * f.v;
  const double n = mesh::norm(out.P);
  out.p = (1.0 / n) * out.P;
  // d/da_raw of P/|P|: map'(a)·[u/|P| - P (u·P)/|P|^3].
  const double inv_n = 1.0 / n;
  const double inv_n3 = inv_n * inv_n * inv_n;
  out.ta = da * (inv_n * f.u - (mesh::dot(f.u, out.P) * inv_n3) * out.P);
  out.tb = db * (inv_n * f.v - (mesh::dot(f.v, out.P) * inv_n3) * out.P);
  return out;
}

}  // namespace

node_geometry make_rotation_geometry(const mesh::cubed_sphere& mesh,
                                     const gll_rule& rule, double omega,
                                     mesh::vec3 axis) {
  const int np = rule.np();
  const int nelem = mesh.num_elements();
  const std::size_t n =
      static_cast<std::size_t>(nelem) * static_cast<std::size_t>(np) *
      static_cast<std::size_t>(np);
  node_geometry g;
  g.position.resize(n);
  g.v_xi.resize(n);
  g.v_eta.resize(n);
  g.jacobian.resize(n);

  const double dadxi = 1.0 / mesh.ne();  // a = ... + xi/Ne (+const), per unit xi

  for (int e = 0; e < nelem; ++e) {
    for (int j = 0; j < np; ++j) {
      for (int i = 0; i < np; ++i) {
        const std::size_t idx =
            (static_cast<std::size_t>(e) * np + static_cast<std::size_t>(j)) *
                np +
            static_cast<std::size_t>(i);
        const cube_point cp =
            eval_cube_point(mesh, e, rule.nodes[static_cast<std::size_t>(i)],
                            rule.nodes[static_cast<std::size_t>(j)]);
        g.position[idx] = cp.p;
        const mesh::vec3 t_xi = dadxi * cp.ta;
        const mesh::vec3 t_eta = dadxi * cp.tb;
        const mesh::vec3 vel = omega * mesh::cross(axis, cp.p);
        // Solve the 2x2 metric system G [v_xi; v_eta] = [vel·t_xi; vel·t_eta].
        const double g11 = mesh::dot(t_xi, t_xi);
        const double g12 = mesh::dot(t_xi, t_eta);
        const double g22 = mesh::dot(t_eta, t_eta);
        const double det = g11 * g22 - g12 * g12;
        SFP_REQUIRE(det > 0, "degenerate element metric");
        const double r1 = mesh::dot(vel, t_xi);
        const double r2 = mesh::dot(vel, t_eta);
        g.v_xi[idx] = (g22 * r1 - g12 * r2) / det;
        g.v_eta[idx] = (g11 * r2 - g12 * r1) / det;
        g.jacobian[idx] = mesh::norm(mesh::cross(t_xi, t_eta));
      }
    }
  }
  return g;
}

advection_model::advection_model(const mesh::cubed_sphere& mesh, int np,
                                 double omega, mesh::vec3 axis)
    : np_(checked_np(np)),
      rule_(make_gll(np)),
      assembly_(mesh, np),
      geometry_(make_rotation_geometry(mesh, rule_, omega, axis)),
      field_(static_cast<std::size_t>(assembly_.field_size()), 0.0),
      stages_(field_.size()) {}

void advection_model::set_field(const std::function<double(mesh::vec3)>& f) {
  for (std::size_t n = 0; n < field_.size(); ++n)
    field_[n] = f(geometry_.position[n]);
  // Shared nodes get identical values from a well-defined f, but average
  // anyway so roundoff differences cannot seed discontinuities.
  assembly_.dss_average(field_);
}

namespace {

/// The advective tendency -(v_xi dq/dxi + v_eta dq/deta) of `nslots`
/// element slots of np² nodes: slot l of `q` and `out` holds element
/// elem_of(l), whose velocity sits at elem_of(l)·np² in `g`.
template <typename ElemOf>
void advect_slots(const gll_rule& rule, const node_geometry& g,
                  const double* q, double* out, std::size_t nslots,
                  ElemOf elem_of) {
  with_np(rule.np(), [&]<int NP>(std::integral_constant<int, NP>) {
    constexpr std::size_t per_elem = NP * NP;
    for (std::size_t l = 0; l < nslots; ++l) {
      const std::size_t at = elem_of(l) * per_elem;
      gll_advection<NP>(rule, q + l * per_elem, g.v_xi.data() + at,
                        g.v_eta.data() + at, out + l * per_elem);
    }
  });
}

/// Stage `stage` of `nslots` element slots, laid out as in advect_slots,
/// each stored by the kernel's row store and then reported to after_slot.
template <typename ElemOf>
void stage_slots(const gll_rule& rule, const node_geometry& g, int stage,
                 double h, const double* q, const double* src, double* dst,
                 std::size_t nslots, ElemOf elem_of, slot_done after_slot) {
  with_np(rule.np(), [&]<int NP>(std::integral_constant<int, NP>) {
    constexpr std::size_t per_elem = NP * NP;
    for (std::size_t l = 0; l < nslots; ++l) {
      const std::size_t at = elem_of(l) * per_elem;
      const std::size_t slot = l * per_elem;
      gll_advection_stage<NP>(stage, rule, q + slot, src + slot,
                              g.v_xi.data() + at, g.v_eta.data() + at, h,
                              dst + slot);
      after_slot(l);
    }
  });
}

}  // namespace

void advection_model::tendency(std::span<const double> q,
                               std::span<double> out) const {
  SFP_REQUIRE(q.size() == field_.size() && out.size() == field_.size(),
              "field size mismatch");
  const std::size_t per_elem =
      static_cast<std::size_t>(np_) * static_cast<std::size_t>(np_);
  advect_slots(rule_, geometry_, q.data(), out.data(),
               field_.size() / per_elem, [](std::size_t l) { return l; });
}

void advection_model::stage_pass(int stage, double h,
                                 std::span<const double> q,
                                 std::span<const double> src,
                                 std::span<double> dst) const {
  SFP_REQUIRE(q.size() == field_.size() && src.size() == field_.size() &&
                  dst.size() == field_.size(),
              "field size mismatch");
  const std::size_t per_elem =
      static_cast<std::size_t>(np_) * static_cast<std::size_t>(np_);
  stage_slots(rule_, geometry_, stage, h, q.data(), src.data(), dst.data(),
              field_.size() / per_elem, [](std::size_t l) { return l; }, {});
}

void advection_model::stage_elements(int stage, double h,
                                     std::span<const double> q,
                                     std::span<const double> src,
                                     std::span<double> dst,
                                     std::span<const int> elems,
                                     slot_done after_slot) const {
  const std::size_t size = elems.size() * static_cast<std::size_t>(np_) *
                           static_cast<std::size_t>(np_);
  SFP_REQUIRE(q.size() == size && src.size() == size && dst.size() == size,
              "element slice size mismatch");
  stage_slots(rule_, geometry_, stage, h, q.data(), src.data(), dst.data(),
              elems.size(),
              [&](std::size_t l) { return static_cast<std::size_t>(elems[l]); },
              after_slot);
}

void advection_model::step(double dt) {
  SFP_REQUIRE(dt > 0, "timestep must be positive");
  ssp_rk3_step(
      rk3_fields<1>{field_}, stages_, dt,
      [&](int stage, double h, const rk3_fields<1>& q,
          const rk3_fields<1>& src, const rk3_fields<1>& dst) {
        stage_pass(stage, h, q[0], src[0], dst[0]);
      },
      [&](const rk3_fields<1>& f) { assembly_.dss_average(f[0]); });
}

double advection_model::cfl_dt(double cfl) const {
  SFP_REQUIRE(cfl > 0, "CFL number must be positive");
  double min_gap = 2.0;
  for (std::size_t i = 1; i < rule_.nodes.size(); ++i)
    min_gap = std::min(min_gap, rule_.nodes[i] - rule_.nodes[i - 1]);
  double vmax = 0.0;
  for (std::size_t k = 0; k < geometry_.v_xi.size(); ++k)
    vmax = std::max(vmax,
                    std::max(std::abs(geometry_.v_xi[k]),
                             std::abs(geometry_.v_eta[k])));
  SFP_REQUIRE(vmax > 0, "flow is everywhere zero");
  return cfl * min_gap / vmax;
}

double advection_model::mass() const {
  double total = 0.0;
  const std::size_t per_elem =
      static_cast<std::size_t>(np_) * static_cast<std::size_t>(np_);
  const std::size_t nelem = field_.size() / per_elem;
  for (std::size_t e = 0; e < nelem; ++e) {
    for (int j = 0; j < np_; ++j) {
      for (int i = 0; i < np_; ++i) {
        const std::size_t idx = e * per_elem + static_cast<std::size_t>(j * np_ + i);
        total += rule_.weights[static_cast<std::size_t>(i)] *
                 rule_.weights[static_cast<std::size_t>(j)] *
                 geometry_.jacobian[idx] * field_[idx];
      }
    }
  }
  return total;
}

double advection_model::max_abs() const {
  double m = 0.0;
  for (const double v : field_) m = std::max(m, std::abs(v));
  return m;
}

mesh::vec3 advection_model::centroid() const {
  mesh::vec3 acc{0, 0, 0};
  double total = 0.0;
  const std::size_t per_elem =
      static_cast<std::size_t>(np_) * static_cast<std::size_t>(np_);
  const std::size_t nelem = field_.size() / per_elem;
  for (std::size_t e = 0; e < nelem; ++e) {
    for (int j = 0; j < np_; ++j) {
      for (int i = 0; i < np_; ++i) {
        const std::size_t idx = e * per_elem + static_cast<std::size_t>(j * np_ + i);
        const double w = rule_.weights[static_cast<std::size_t>(i)] *
                         rule_.weights[static_cast<std::size_t>(j)] *
                         geometry_.jacobian[idx] * field_[idx];
        acc = acc + w * geometry_.position[idx];
        total += w;
      }
    }
  }
  SFP_REQUIRE(std::abs(total) > 1e-300, "field has no mass");
  return (1.0 / total) * acc;
}

}  // namespace sfp::seam
