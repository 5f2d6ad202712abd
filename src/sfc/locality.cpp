#include "sfc/locality.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace sfp::sfc {

namespace {

double dilation_at_lag(const std::vector<cell>& curve, int lag) {
  if (static_cast<std::size_t>(lag) >= curve.size()) return 0.0;
  double acc = 0;
  const std::size_t n = curve.size() - static_cast<std::size_t>(lag);
  for (std::size_t i = 0; i < n; ++i) {
    const cell a = curve[i], b = curve[i + static_cast<std::size_t>(lag)];
    const double dx = a.x - b.x, dy = a.y - b.y;
    acc += dx * dx + dy * dy;
  }
  return acc / (static_cast<double>(n) * lag);
}

double mean_segment_perimeter(const std::vector<cell>& curve, int side,
                              int segment) {
  if (curve.size() < static_cast<std::size_t>(segment)) return 0.0;
  // Label each cell with its segment index, then count cut 4-adjacencies.
  std::vector<int> seg_of(curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    seg_of[static_cast<std::size_t>(curve[i].y) *
               static_cast<std::size_t>(side) +
           static_cast<std::size_t>(curve[i].x)] =
        static_cast<int>(i / static_cast<std::size_t>(segment));
  }
  std::int64_t cut = 0;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const int s = seg_of[static_cast<std::size_t>(y) *
                               static_cast<std::size_t>(side) +
                           static_cast<std::size_t>(x)];
      if (x + 1 < side &&
          s != seg_of[static_cast<std::size_t>(y) *
                          static_cast<std::size_t>(side) +
                      static_cast<std::size_t>(x) + 1])
        ++cut;
      if (y + 1 < side &&
          s != seg_of[(static_cast<std::size_t>(y) + 1) *
                          static_cast<std::size_t>(side) +
                      static_cast<std::size_t>(x)])
        ++cut;
    }
  }
  const double num_segments =
      static_cast<double>(curve.size()) / segment;
  // Each cut adjacency separates two segments; attribute it to both.
  return 2.0 * static_cast<double>(cut) / num_segments;
}

}  // namespace

double locality_report::ideal_perimeter(int cells) {
  // A sqrt(n)×sqrt(n) square segment interior to the grid touches
  // 4·sqrt(n) foreign cells.
  return 4.0 * std::sqrt(static_cast<double>(cells));
}

locality_report analyze_locality(const std::vector<cell>& curve, int side,
                                 int stretch_window) {
  SFP_REQUIRE(side >= 2, "need at least a 2x2 grid");
  SFP_REQUIRE(curve.size() == static_cast<std::size_t>(side) *
                                  static_cast<std::size_t>(side),
              "curve length must be side^2");
  SFP_REQUIRE(stretch_window >= 1, "stretch window must be positive");

  locality_report r;
  r.side = side;
  r.dilation_lag1 = dilation_at_lag(curve, 1);
  r.dilation_lag16 = dilation_at_lag(curve, 16);
  r.dilation_lag64 = dilation_at_lag(curve, 64);

  double stretch = 0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const std::size_t jmax =
        std::min(curve.size(), i + static_cast<std::size_t>(stretch_window) + 1);
    for (std::size_t j = i + 1; j < jmax; ++j) {
      const double dx = curve[i].x - curve[j].x;
      const double dy = curve[i].y - curve[j].y;
      stretch = std::max(stretch,
                         (dx * dx + dy * dy) / static_cast<double>(j - i));
    }
  }
  r.max_stretch = stretch;

  r.mean_segment_perimeter_4 = mean_segment_perimeter(curve, side, 4);
  r.mean_segment_perimeter_16 = mean_segment_perimeter(curve, side, 16);
  return r;
}

std::vector<cell> row_major_order(int side) {
  SFP_REQUIRE(side >= 1, "side must be positive");
  std::vector<cell> out;
  out.reserve(static_cast<std::size_t>(side) * static_cast<std::size_t>(side));
  for (int y = 0; y < side; ++y)
    for (int x = 0; x < side; ++x) out.push_back({x, y});
  return out;
}

}  // namespace sfp::sfc
