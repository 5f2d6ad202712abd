#include "mgp/geometric.hpp"

#include <algorithm>
#include <numeric>

#include "util/contract.hpp"

namespace sfp::mgp {

namespace {

void rcb_recurse(std::span<const point3> points,
                 std::span<const graph::weight> weights,
                 std::vector<graph::vid>& ids, int nparts, int first_label,
                 std::vector<graph::vid>& out) {
  if (nparts == 1) {
    for (const graph::vid id : ids)
      out[static_cast<std::size_t>(id)] = first_label;
    return;
  }
  SFP_ASSERT(ids.size() >= static_cast<std::size_t>(nparts),
             "more parts than points in RCB subdomain");

  // Longest axis of the subdomain's bounding box.
  point3 lo = points[static_cast<std::size_t>(ids[0])];
  point3 hi = lo;
  for (const graph::vid id : ids) {
    for (int a = 0; a < 3; ++a) {
      lo[static_cast<std::size_t>(a)] =
          std::min(lo[static_cast<std::size_t>(a)],
                   points[static_cast<std::size_t>(id)][static_cast<std::size_t>(a)]);
      hi[static_cast<std::size_t>(a)] =
          std::max(hi[static_cast<std::size_t>(a)],
                   points[static_cast<std::size_t>(id)][static_cast<std::size_t>(a)]);
    }
  }
  int axis = 0;
  double best_extent = -1;
  for (int a = 0; a < 3; ++a) {
    const double extent = hi[static_cast<std::size_t>(a)] -
                          lo[static_cast<std::size_t>(a)];
    if (extent > best_extent) {
      best_extent = extent;
      axis = a;
    }
  }

  // Sort by the chosen coordinate (id as tiebreak for determinism).
  std::sort(ids.begin(), ids.end(), [&](graph::vid a, graph::vid b) {
    const double ca = points[static_cast<std::size_t>(a)][static_cast<std::size_t>(axis)];
    const double cb = points[static_cast<std::size_t>(b)][static_cast<std::size_t>(axis)];
    if (ca != cb) return ca < cb;
    return a < b;
  });

  // Weighted split at fraction k0/nparts, bounded so both sides can host
  // their share of parts.
  const int k0 = nparts / 2;
  const int k1 = nparts - k0;
  graph::weight total = 0;
  for (const graph::vid id : ids)
    total += weights.empty() ? 1 : weights[static_cast<std::size_t>(id)];
  const double target0 =
      static_cast<double>(total) * k0 / static_cast<double>(nparts);

  std::size_t cut = 0;
  graph::weight acc = 0;
  for (; cut < ids.size(); ++cut) {
    const graph::weight w =
        weights.empty() ? 1 : weights[static_cast<std::size_t>(ids[cut])];
    if (static_cast<double>(acc) + 0.5 * static_cast<double>(w) >= target0)
      break;
    acc += w;
  }
  cut = std::clamp(cut, static_cast<std::size_t>(k0),
                   ids.size() - static_cast<std::size_t>(k1));

  std::vector<graph::vid> left(ids.begin(),
                               ids.begin() + static_cast<std::ptrdiff_t>(cut));
  std::vector<graph::vid> right(ids.begin() + static_cast<std::ptrdiff_t>(cut),
                                ids.end());
  rcb_recurse(points, weights, left, k0, first_label, out);
  rcb_recurse(points, weights, right, k1, first_label + k0, out);
}

}  // namespace

partition::partition recursive_coordinate_bisection(
    std::span<const point3> points, std::span<const graph::weight> weights,
    int nparts) {
  SFP_REQUIRE(!points.empty(), "RCB needs at least one point");
  SFP_REQUIRE(nparts >= 1, "need at least one part");
  SFP_REQUIRE(static_cast<std::size_t>(nparts) <= points.size(),
              "more parts than points");
  SFP_REQUIRE(weights.empty() || weights.size() == points.size(),
              "weights must be empty or one per point");

  partition::partition p;
  p.num_parts = nparts;
  p.part_of.assign(points.size(), 0);
  std::vector<graph::vid> ids(points.size());
  std::iota(ids.begin(), ids.end(), 0);
  rcb_recurse(points, weights, ids, nparts, 0, p.part_of);
  return p;
}

}  // namespace sfp::mgp
