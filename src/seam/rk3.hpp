#pragma once
// The one SSP-RK3 (Shu–Osher) time stepper of the SEAM mini-app,
// shared by the serial models and the distributed runners. Every stage is an
// element-kernel pass followed by the DSS boundary exchange — the per-step
// structure whose communication cost the partitioners compete over. Callers
// supply the node range the stage updates touch, the tendency and the DSS,
// as inlined callables. The serial models step every node of the global
// field layout; a distributed rank steps every node of its rank-local
// layout (seam/exchange.hpp: owned slot l holds element owned[l]'s np²
// nodes), so its fields and stages are O(K/P).

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace sfp::seam {

/// The N prognostic fields one step advances together, all in one layout
/// (global for the serial models, rank-local for a distributed rank).
template <std::size_t N>
using rk3_fields = std::array<std::span<double>, N>;

/// Tendency and intermediate-stage storage for ssp_rk3_step over N fields
/// of `field_size` nodes each.
template <std::size_t N>
struct rk3_stages {
  explicit rk3_stages(std::size_t field_size) {
    for (std::size_t f = 0; f < N; ++f) {
      rhs[f].assign(field_size, 0.0);
      s1[f].assign(field_size, 0.0);
      s2[f].assign(field_size, 0.0);
    }
  }

  std::array<std::vector<double>, N> rhs, s1, s2;
};

namespace detail {

template <std::size_t N>
rk3_fields<N> views_of(std::array<std::vector<double>, N>& fields) {
  rk3_fields<N> out;
  for (std::size_t f = 0; f < N; ++f) out[f] = fields[f];
  return out;
}

}  // namespace detail

/// Advance `q` by one SSP-RK3 step of size `h`, updating only the nodes in
/// `nodes`:
///
///   s1 = q + h L(q)
///   s2 = 3/4 q + 1/4 (s1 + h L(s1))
///   q  = 1/3 q + 2/3 (s2 + h L(s2))
///
/// with `dss(fields)` applied to s1, s2 and the new q. `rhs(src, dst)` writes
/// the tendency L(src) into `dst`, at least at `nodes`. For a tendency
/// scaled by w, pass h = dt * w: the stages then round exactly as
/// `dt * w * L`, which parses as `(dt * w) * L`.
template <std::size_t N, typename Nodes, typename Rhs, typename Dss>
void ssp_rk3_step(const rk3_fields<N>& q, rk3_stages<N>& stages,
                  const Nodes& nodes, double h, Rhs&& rhs, Dss&& dss) {
  const rk3_fields<N> r = detail::views_of(stages.rhs);
  const rk3_fields<N> s1 = detail::views_of(stages.s1);
  const rk3_fields<N> s2 = detail::views_of(stages.s2);

  rhs(q, r);
  for (std::size_t f = 0; f < N; ++f)
    for (const std::size_t n : nodes) s1[f][n] = q[f][n] + h * r[f][n];
  dss(s1);

  rhs(s1, r);
  for (std::size_t f = 0; f < N; ++f)
    for (const std::size_t n : nodes)
      s2[f][n] = 0.75 * q[f][n] + 0.25 * (s1[f][n] + h * r[f][n]);
  dss(s2);

  rhs(s2, r);
  for (std::size_t f = 0; f < N; ++f)
    for (const std::size_t n : nodes)
      q[f][n] = q[f][n] / 3.0 + (2.0 / 3.0) * (s2[f][n] + h * r[f][n]);
  dss(q);
}

}  // namespace sfp::seam
