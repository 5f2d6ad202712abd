#include "seam/shallow_water.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <ranges>

#include "util/contract.hpp"

namespace sfp::seam {

namespace {

/// Four per-node fields of one slot run: h, ux, uy, uz or their tendencies.
template <typename T>
using four = std::array<T*, 4>;

/// The SWE tendency of one element of NP² nodes (see rhs_elements).
template <int NP>
void rhs_one(const gll_rule& rule, const shallow_water_model::node_data* nodes,
             double g, four<const double> in, four<double> out) {
  constexpr std::size_t per_elem = NP * NP;
  const double* h = in[0];
  const double* ux = in[1];
  const double* uy = in[2];
  const double* uz = in[3];

  // Contravariant velocity and mass fluxes at each node.
  double uxi[per_elem], ueta[per_elem], fxi[per_elem], feta[per_elem];
  for (std::size_t k = 0; k < per_elem; ++k) {
    const shallow_water_model::node_data& nd = nodes[k];
    const mesh::vec3 u{ux[k], uy[k], uz[k]};
    const double c1 = mesh::dot(u, nd.t_xi);
    const double c2 = mesh::dot(u, nd.t_eta);
    uxi[k] = nd.gi11 * c1 + nd.gi12 * c2;
    ueta[k] = nd.gi12 * c1 + nd.gi22 * c2;
    fxi[k] = nd.jac * h[k] * uxi[k];
    feta[k] = nd.jac * h[k] * ueta[k];
  }
  // Directional derivatives, and the momentum advection -(u·∇)u per
  // Cartesian component.
  double dq1[per_elem], dq2[per_elem], dhx[per_elem], dhe[per_elem],
      adv_x[per_elem], adv_y[per_elem], adv_z[per_elem];
  gll_derivatives<NP>(rule, fxi, feta, dq1, dq2);
  gll_derivatives<NP>(rule, h, h, dhx, dhe);
  gll_advection<NP>(rule, ux, uxi, ueta, adv_x);
  gll_advection<NP>(rule, uy, uxi, ueta, adv_y);
  gll_advection<NP>(rule, uz, uxi, ueta, adv_z);

  for (std::size_t k = 0; k < per_elem; ++k) {
    const shallow_water_model::node_data& nd = nodes[k];
    // Continuity: dh/dt = -(1/J) [∂(J h u^ξ)/∂ξ + ∂(J h u^η)/∂η].
    out[0][k] = -(dq1[k] + dq2[k]) / nd.jac;
    // Pressure gradient: g ∇h via the contravariant basis.
    const mesh::vec3 txi_up = nd.gi11 * nd.t_xi + nd.gi12 * nd.t_eta;
    const mesh::vec3 teta_up = nd.gi12 * nd.t_xi + nd.gi22 * nd.t_eta;
    const mesh::vec3 grad_h = dhx[k] * txi_up + dhe[k] * teta_up;
    // Coriolis: f (p̂ × u).
    const mesh::vec3 u{ux[k], uy[k], uz[k]};
    const mesh::vec3 cor = nd.coriolis * mesh::cross(nd.pos, u);
    out[1][k] = adv_x[k] - cor.x - g * grad_h.x;
    out[2][k] = adv_y[k] - cor.y - g * grad_h.y;
    out[3][k] = adv_z[k] - cor.z - g * grad_h.z;
  }
}

/// rhs_one over `nslots` element slots of np² nodes: slot l of every field
/// holds element elem_of(l).
template <typename ElemOf>
void rhs_slots(const gll_rule& rule,
               std::span<const shallow_water_model::node_data> nodes,
               double g, four<const double> in, four<double> out,
               std::size_t nslots, ElemOf elem_of) {
  with_np(rule.np(), [&]<int NP>(std::integral_constant<int, NP>) {
    constexpr std::size_t per_elem = NP * NP;
    for (std::size_t l = 0; l < nslots; ++l) {
      const std::size_t at = l * per_elem;
      rhs_one<NP>(rule, nodes.data() + elem_of(l) * per_elem, g,
                  {in[0] + at, in[1] + at, in[2] + at, in[3] + at},
                  {out[0] + at, out[1] + at, out[2] + at, out[3] + at});
    }
  });
}

}  // namespace

shallow_water_model::shallow_water_model(const mesh::cubed_sphere& mesh,
                                         int np, swe_params params)
    : np_(checked_np(np)),
      params_(params),
      rule_(make_gll(np)),
      assembly_(mesh, np),
      stages_(static_cast<std::size_t>(assembly_.field_size())) {
  SFP_REQUIRE(params_.gravity > 0, "gravity must be positive");
  const auto n = static_cast<std::size_t>(assembly_.field_size());
  nodes_.resize(n);
  for (auto* field : {&h_, &ux_, &uy_, &uz_}) field->assign(n, 0.0);

  // Precompute per-node geometry (same construction as the advection core,
  // but keeping the tangent basis and inverse metric for the full operator
  // set).
  const double dadxi = 1.0 / mesh.ne();
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const mesh::element_ref r = mesh.element_of(e);
    const auto f = mesh::cubed_sphere::frame_of_face(r.face);
    for (int j = 0; j < np_; ++j) {
      for (int i = 0; i < np_; ++i) {
        const std::size_t idx =
            (static_cast<std::size_t>(e) * np_ + static_cast<std::size_t>(j)) *
                np_ +
            static_cast<std::size_t>(i);
        const double a_raw =
            (2.0 * (r.i + 0.5 * (rule_.nodes[static_cast<std::size_t>(i)] + 1.0)) -
             mesh.ne()) /
            mesh.ne();
        const double b_raw =
            (2.0 * (r.j + 0.5 * (rule_.nodes[static_cast<std::size_t>(j)] + 1.0)) -
             mesh.ne()) /
            mesh.ne();
        const double a = mesh.map_face_coord(a_raw);
        const double b = mesh.map_face_coord(b_raw);
        const mesh::vec3 P = f.center + a * f.u + b * f.v;
        const double norm_p = mesh::norm(P);
        const double inv_n = 1.0 / norm_p;
        const double inv_n3 = inv_n * inv_n * inv_n;
        node_data& nd = nodes_[idx];
        nd.pos = inv_n * P;
        const mesh::vec3 ta = inv_n * f.u - (mesh::dot(f.u, P) * inv_n3) * P;
        const mesh::vec3 tb = inv_n * f.v - (mesh::dot(f.v, P) * inv_n3) * P;
        nd.t_xi = (dadxi * mesh.map_face_coord_deriv(a_raw)) * ta;
        nd.t_eta = (dadxi * mesh.map_face_coord_deriv(b_raw)) * tb;
        const double g11 = mesh::dot(nd.t_xi, nd.t_xi);
        const double g12 = mesh::dot(nd.t_xi, nd.t_eta);
        const double g22 = mesh::dot(nd.t_eta, nd.t_eta);
        const double det = g11 * g22 - g12 * g12;
        SFP_REQUIRE(det > 0, "degenerate element metric");
        nd.gi11 = g22 / det;
        nd.gi12 = -g12 / det;
        nd.gi22 = g11 / det;
        nd.jac = mesh::norm(mesh::cross(nd.t_xi, nd.t_eta));
        nd.coriolis = 2.0 * params_.rotation * nd.pos.z;
      }
    }
  }
}

void shallow_water_model::set_state(
    const std::function<double(mesh::vec3)>& depth,
    const std::function<mesh::vec3(mesh::vec3)>& velocity) {
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const mesh::vec3 p = nodes_[k].pos;
    h_[k] = depth(p);
    mesh::vec3 u = velocity(p);
    u = u - mesh::dot(u, p) * p;  // tangent projection
    ux_[k] = u.x;
    uy_[k] = u.y;
    uz_[k] = u.z;
  }
  project_and_dss({h_, ux_, uy_, uz_});
}

void shallow_water_model::set_williamson2(double u0, double h0) {
  const double g = params_.gravity;
  const double omega = params_.rotation;
  set_state(
      [=](mesh::vec3 p) {
        return h0 - (omega * u0 + 0.5 * u0 * u0) * p.z * p.z / g;
      },
      [=](mesh::vec3 p) {
        return mesh::vec3{-u0 * p.y, u0 * p.x, 0.0};  // u0 (ẑ × p)
      });
}

void shallow_water_model::rhs_elements(
    std::span<const double> h, std::span<const double> ux,
    std::span<const double> uy, std::span<const double> uz,
    std::span<double> rh, std::span<double> rx, std::span<double> ry,
    std::span<double> rz, std::span<const int> elems) const {
  const std::size_t size = elems.size() * static_cast<std::size_t>(np_) *
                           static_cast<std::size_t>(np_);
  for (const std::size_t field : {h.size(), ux.size(), uy.size(), uz.size(),
                                  rh.size(), rx.size(), ry.size(), rz.size()})
    SFP_REQUIRE(field == size, "element slice size mismatch");
  rhs_slots(rule_, nodes_, params_.gravity,
            {h.data(), ux.data(), uy.data(), uz.data()},
            {rh.data(), rx.data(), ry.data(), rz.data()}, elems.size(),
            [&](std::size_t l) { return static_cast<std::size_t>(elems[l]); });
}

void shallow_water_model::project_node(std::size_t k, double& ux, double& uy,
                                       double& uz) const {
  const mesh::vec3 p = nodes_[k].pos;
  const double un = ux * p.x + uy * p.y + uz * p.z;
  ux -= un * p.x;
  uy -= un * p.y;
  uz -= un * p.z;
}

void shallow_water_model::project_and_dss(const rk3_fields<4>& f) const {
  for (std::size_t k = 0; k < nodes_.size(); ++k)
    project_node(k, f[1][k], f[2][k], f[3][k]);
  for (const std::span<double> field : f) assembly_.dss_average(field);
}

void shallow_water_model::step(double dt) {
  SFP_REQUIRE(dt > 0, "timestep must be positive");
  ssp_rk3_step(
      rk3_fields<4>{h_, ux_, uy_, uz_}, stages_,
      std::views::iota(std::size_t{0}, h_.size()), dt,
      [&](const rk3_fields<4>& s, const rk3_fields<4>& r) {
        rhs_slots(rule_, nodes_, params_.gravity,
                  {s[0].data(), s[1].data(), s[2].data(), s[3].data()},
                  {r[0].data(), r[1].data(), r[2].data(), r[3].data()},
                  static_cast<std::size_t>(assembly_.num_elements()),
                  [](std::size_t l) { return l; });
      },
      [&](const rk3_fields<4>& f) { project_and_dss(f); });
}

double shallow_water_model::cfl_dt(double cfl) const {
  SFP_REQUIRE(cfl > 0, "CFL number must be positive");
  double min_gap = 2.0;
  for (std::size_t i = 1; i < rule_.nodes.size(); ++i)
    min_gap = std::min(min_gap, rule_.nodes[i] - rule_.nodes[i - 1]);
  double h_max = 0;
  for (const double h : h_) h_max = std::max(h_max, h);
  const double c = std::sqrt(params_.gravity * std::max(h_max, 1e-12));
  double speed = 1e-12;
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const node_data& nd = nodes_[k];
    const mesh::vec3 u{ux_[k], uy_[k], uz_[k]};
    const double c1 = mesh::dot(u, nd.t_xi);
    const double c2 = mesh::dot(u, nd.t_eta);
    const double uxi = std::abs(nd.gi11 * c1 + nd.gi12 * c2);
    const double ueta = std::abs(nd.gi12 * c1 + nd.gi22 * c2);
    // Gravity waves travel at c in physical space; convert to reference
    // speed with the contravariant metric scale.
    speed = std::max(speed, uxi + c * std::sqrt(nd.gi11));
    speed = std::max(speed, ueta + c * std::sqrt(nd.gi22));
  }
  return cfl * min_gap / speed;
}

double shallow_water_model::mass() const {
  double total = 0;
  const std::size_t per_elem =
      static_cast<std::size_t>(np_) * static_cast<std::size_t>(np_);
  for (std::size_t k = 0; k < h_.size(); ++k) {
    const int i = static_cast<int>(k % static_cast<std::size_t>(np_));
    const int j = static_cast<int>((k / static_cast<std::size_t>(np_)) %
                                   static_cast<std::size_t>(np_));
    (void)per_elem;
    total += rule_.weights[static_cast<std::size_t>(i)] *
             rule_.weights[static_cast<std::size_t>(j)] * nodes_[k].jac *
             h_[k];
  }
  return total;
}

double shallow_water_model::total_energy() const {
  double total = 0;
  for (std::size_t k = 0; k < h_.size(); ++k) {
    const int i = static_cast<int>(k % static_cast<std::size_t>(np_));
    const int j = static_cast<int>((k / static_cast<std::size_t>(np_)) %
                                   static_cast<std::size_t>(np_));
    const double u2 = ux_[k] * ux_[k] + uy_[k] * uy_[k] + uz_[k] * uz_[k];
    const double density =
        0.5 * h_[k] * u2 + 0.5 * params_.gravity * h_[k] * h_[k];
    total += rule_.weights[static_cast<std::size_t>(i)] *
             rule_.weights[static_cast<std::size_t>(j)] * nodes_[k].jac *
             density;
  }
  return total;
}

double shallow_water_model::depth_error(
    const std::function<double(mesh::vec3)>& reference) const {
  double err = 0;
  for (std::size_t k = 0; k < h_.size(); ++k)
    err = std::max(err, std::abs(h_[k] - reference(nodes_[k].pos)));
  return err;
}

double shallow_water_model::max_normal_velocity() const {
  double worst = 0;
  for (std::size_t k = 0; k < h_.size(); ++k) {
    const mesh::vec3 p = nodes_[k].pos;
    worst = std::max(worst,
                     std::abs(ux_[k] * p.x + uy_[k] * p.y + uz_[k] * p.z));
  }
  return worst;
}

double shallow_water_model::continuity_gap() const {
  double gap = assembly_.continuity_gap(h_);
  gap = std::max(gap, assembly_.continuity_gap(ux_));
  gap = std::max(gap, assembly_.continuity_gap(uy_));
  gap = std::max(gap, assembly_.continuity_gap(uz_));
  return gap;
}

}  // namespace sfp::seam
