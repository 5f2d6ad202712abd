#pragma once
// The one SSP-RK3 (Shu–Osher) time stepper of the SEAM mini-app,
// shared by the serial models and the distributed runners. Every stage is
// one element pass followed by the DSS boundary exchange — the per-step
// structure whose communication cost the partitioners are fighting over.
// The element pass evaluates the tendency of each element and stores the
// stage value at once, while the element is in cache: no tendency array
// exists, and no second sweep reads one back. A distributed rank's pass
// also adds each slot's boundary values into its halo accumulators right
// after it stores the slot (seam/exchange.hpp), so its DSS only packs,
// exchanges and unpacks. The serial models step the global field layout;
// a distributed rank steps its rank-local layout (owned slot l holds
// element owned[l]'s np² nodes), so its fields and stages are O(K/P).

#include <array>
#include <concepts>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "util/contract.hpp"

namespace sfp::seam {

/// The N prognostic fields one step advances together, all in one layout
/// (global for the serial models, rank-local for a distributed rank).
template <std::size_t N>
using rk3_fields = std::array<std::span<double>, N>;

/// Intermediate-stage storage for ssp_rk3_step over N fields of
/// `field_size` nodes each.
template <std::size_t N>
struct rk3_stages {
  explicit rk3_stages(std::size_t field_size) {
    for (std::size_t f = 0; f < N; ++f) {
      s1[f].assign(field_size, 0.0);
      s2[f].assign(field_size, 0.0);
    }
  }

  std::array<std::vector<double>, N> s1, s2;
};

/// Stage S (0, 1 or 2) of the Shu–Osher form at one node or one lane
/// vector V, from the step's start value q, the stage's source value src
/// and hl = h · L(src):
///
///   S = 0:  dst = q + hl                  (src is q)
///   S = 1:  dst = 3/4 q + 1/4 (src + hl)
///   S = 2:  dst = 1/3 q + 2/3 (src + hl)
///
/// The one place the three formulas live: every element pass, at every
/// lane width, stores its stage values through it, so every path rounds
/// them alike. `dst` may be `q`.
template <int S, typename V>
[[gnu::always_inline]] inline void rk3_stage_value(V& dst, const V& q,
                                                   const V& src,
                                                   const V& hl) {
  static_assert(S >= 0 && S <= 2, "SSP-RK3 has three stages");
  if constexpr (S == 0) {
    (void)src;
    dst = q + hl;
  } else if constexpr (S == 1) {
    dst = 0.75 * q + 0.25 * (src + hl);
  } else {
    dst = q / 3.0 + (2.0 / 3.0) * (src + hl);
  }
}

/// Calls fn(std::integral_constant<int, S>{}) with S == stage, which must
/// be 0, 1 or 2: the one runtime-to-compile-time stage switch, taken once
/// per element (or once per pass).
template <typename Fn>
[[gnu::always_inline]] inline void with_rk3_stage(int stage, Fn&& fn) {
  SFP_REQUIRE(stage >= 0 && stage <= 2, "SSP-RK3 stage must be 0, 1 or 2");
  if (stage == 0)
    fn(std::integral_constant<int, 0>{});
  else if (stage == 1)
    fn(std::integral_constant<int, 1>{});
  else
    fn(std::integral_constant<int, 2>{});
}

/// What an element pass calls with a slot's index right after it stored
/// that slot's stage values: a non-owning reference to a callable, which
/// must outlive the pass. A default one does nothing.
class slot_done {
 public:
  slot_done() = default;
  template <typename Fn>
    requires(!std::same_as<std::remove_cvref_t<Fn>, slot_done> &&
             std::invocable<const Fn&, std::size_t>)
  slot_done(const Fn& fn)
      : fn_(&fn), call_([](const void* f, std::size_t l) {
          (*static_cast<const Fn*>(f))(l);
        }) {}

  void operator()(std::size_t l) const {
    if (call_) call_(fn_, l);
  }

 private:
  const void* fn_ = nullptr;
  void (*call_)(const void*, std::size_t) = nullptr;
};

namespace detail {

template <std::size_t N>
rk3_fields<N> views_of(std::array<std::vector<double>, N>& fields) {
  rk3_fields<N> out;
  for (std::size_t f = 0; f < N; ++f) out[f] = fields[f];
  return out;
}

}  // namespace detail

/// Advance `q` by one SSP-RK3 step of size `h`:
///
///   s1 = q + h L(q)
///   s2 = 3/4 q + 1/4 (s1 + h L(s1))
///   q  = 1/3 q + 2/3 (s2 + h L(s2))
///
/// with `dss(fields)` applied to s1, s2 and the new q.
/// `pass(stage, h, q, src, dst)` is one element pass: for every node it
/// stores rk3_stage_value<stage>(q, src, h · L(src)) into `dst`, which is
/// `q` itself in the last stage (so a pass reads q[k] before it writes
/// dst[k], and never reads src where it writes dst). For a tendency scaled
/// by w, pass h = dt * w: the stages then round exactly as `dt * w * L`,
/// which parses as `(dt * w) * L`.
template <std::size_t N, typename Pass, typename Dss>
void ssp_rk3_step(const rk3_fields<N>& q, rk3_stages<N>& stages, double h,
                  Pass&& pass, Dss&& dss) {
  const rk3_fields<N> s1 = detail::views_of(stages.s1);
  const rk3_fields<N> s2 = detail::views_of(stages.s2);
  pass(0, h, q, q, s1);
  dss(s1);
  pass(1, h, q, s1, s2);
  dss(s2);
  pass(2, h, q, s2, q);
  dss(q);
}

}  // namespace sfp::seam
