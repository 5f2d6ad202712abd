#include "seam/shallow_water.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/contract.hpp"

namespace sfp::seam {

namespace {

/// Four per-node fields of one slot run: h, ux, uy, uz or their tendencies.
template <typename T>
using four = std::array<T*, 4>;

/// Remove the normal component of the velocity (ux, uy, uz) at unit-sphere
/// position p.
void project_tangent(const mesh::vec3& p, double& ux, double& uy,
                     double& uz) {
  const double un = ux * p.x + uy * p.y + uz * p.z;
  ux -= un * p.x;
  uy -= un * p.y;
  uz -= un * p.z;
}

/// The SWE tendency of one element of NP² nodes, handed node by node, in
/// ascending k, to out(k, {dh, dux, duy, duz}/dt).
template <int NP, typename Out>
void rhs_one(const gll_rule& rule, const shallow_water_model::node_data* nodes,
             double g, four<const double> in, const Out& out) {
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
    const double rh = -(dq1[k] + dq2[k]) / nd.jac;
    // Pressure gradient: g ∇h via the contravariant basis.
    const mesh::vec3 txi_up = nd.gi11 * nd.t_xi + nd.gi12 * nd.t_eta;
    const mesh::vec3 teta_up = nd.gi12 * nd.t_xi + nd.gi22 * nd.t_eta;
    const mesh::vec3 grad_h = dhx[k] * txi_up + dhe[k] * teta_up;
    // Coriolis: f (p̂ × u).
    const mesh::vec3 u{ux[k], uy[k], uz[k]};
    const mesh::vec3 cor = nd.coriolis * mesh::cross(nd.pos, u);
    out(k, {rh, adv_x[k] - cor.x - g * grad_h.x,
            adv_y[k] - cor.y - g * grad_h.y,
            adv_z[k] - cor.z - g * grad_h.z});
  }
}

/// Calls slot(NP, l, node geometry, offset) for each of `nslots` element
/// slots of np² nodes, in ascending l: slot l of every field starts at the
/// offset and holds element elem_of(l).
template <typename ElemOf, typename Slot>
void for_each_slot(const gll_rule& rule,
                   std::span<const shallow_water_model::node_data> nodes,
                   std::size_t nslots, ElemOf elem_of, const Slot& slot) {
  with_np(rule.np(), [&]<int NP>(std::integral_constant<int, NP> np) {
    constexpr std::size_t per_elem = NP * NP;
    for (std::size_t l = 0; l < nslots; ++l)
      slot(np, l, nodes.data() + elem_of(l) * per_elem, l * per_elem);
  });
}

/// Stage `stage` of `nslots` element slots, laid out as in for_each_slot:
/// each node's stage value of all four fields is stored as soon as rhs_one
/// hands over its tendency, and its velocity tangent-projected; then
/// after_slot(l). `dst` may be `q` and must not overlap `src`.
template <typename ElemOf>
void stage_slots(const gll_rule& rule,
                 std::span<const shallow_water_model::node_data> nodes,
                 double g, int stage, double h, const rk3_fields<4>& q,
                 const rk3_fields<4>& src, const rk3_fields<4>& dst,
                 std::size_t nslots, ElemOf elem_of, slot_done after_slot) {
  for_each_slot(rule, nodes, nslots, elem_of, [&]<int NP>(
      std::integral_constant<int, NP>, std::size_t l,
      const shallow_water_model::node_data* nd, std::size_t at) {
    const auto slot = [at](const rk3_fields<4>& f) {
      return four<double>{f[0].data() + at, f[1].data() + at,
                          f[2].data() + at, f[3].data() + at};
    };
    const four<double> qs = slot(q), ss = slot(src), ds = slot(dst);
    with_rk3_stage(stage, [&]<int S>(std::integral_constant<int, S>) {
      rhs_one<NP>(rule, nd, g, {ss[0], ss[1], ss[2], ss[3]},
                  [&](std::size_t k, const std::array<double, 4>& r) {
                    for (std::size_t f = 0; f < 4; ++f)
                      rk3_stage_value<S>(ds[f][k], qs[f][k], ss[f][k],
                                         h * r[f]);
                    project_tangent(nd[k].pos, ds[1][k], ds[2][k], ds[3][k]);
                  });
    });
    after_slot(l);
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
    project_tangent(p, ux_[k], uy_[k], uz_[k]);  // as every stage pass does
  }
  for (auto* field : {&h_, &ux_, &uy_, &uz_}) assembly_.dss_average(*field);
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

void shallow_water_model::stage_elements(int stage, double h,
                                         const rk3_fields<4>& q,
                                         const rk3_fields<4>& src,
                                         const rk3_fields<4>& dst,
                                         std::span<const int> elems,
                                         slot_done after_slot) const {
  const std::size_t size = elems.size() * static_cast<std::size_t>(np_) *
                           static_cast<std::size_t>(np_);
  for (const rk3_fields<4>* fields : {&q, &src, &dst})
    for (const std::span<double> field : *fields)
      SFP_REQUIRE(field.size() == size, "element slice size mismatch");
  stage_slots(rule_, nodes_, params_.gravity, stage, h, q, src, dst,
              elems.size(),
              [&](std::size_t l) { return static_cast<std::size_t>(elems[l]); },
              after_slot);
}

void shallow_water_model::step(double dt) {
  SFP_REQUIRE(dt > 0, "timestep must be positive");
  ssp_rk3_step(
      rk3_fields<4>{h_, ux_, uy_, uz_}, stages_, dt,
      [&](int stage, double h, const rk3_fields<4>& q,
          const rk3_fields<4>& src, const rk3_fields<4>& dst) {
        stage_slots(rule_, nodes_, params_.gravity, stage, h, q, src, dst,
                    static_cast<std::size_t>(assembly_.num_elements()),
                    [](std::size_t l) { return l; }, {});
      },
      [&](const rk3_fields<4>& f) {
        for (const std::span<double> field : f) assembly_.dss_average(field);
      });
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
