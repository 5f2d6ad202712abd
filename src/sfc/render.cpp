#include "sfc/render.hpp"

#include <array>
#include <cstdio>
#include <sstream>
#include <vector>

#include "util/contract.hpp"

namespace sfp::sfc {

std::string render_curve(const std::vector<cell>& curve, int side) {
  SFP_REQUIRE(side >= 1, "side must be positive");
  SFP_REQUIRE(curve.size() == static_cast<std::size_t>(side) *
                                  static_cast<std::size_t>(side),
              "curve length must be side^2");
  // Per cell, record which of the four directions the curve connects to.
  // Bits: 1=+x (east), 2=-x (west), 4=+y (north), 8=-y (south).
  std::vector<int> links(curve.size(), 0);
  const auto flat = [side](cell c) {
    return static_cast<std::size_t>(c.y) * static_cast<std::size_t>(side) +
           static_cast<std::size_t>(c.x);
  };
  for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
    const cell a = curve[i], b = curve[i + 1];
    if (b.x == a.x + 1) { links[flat(a)] |= 1; links[flat(b)] |= 2; }
    else if (b.x == a.x - 1) { links[flat(a)] |= 2; links[flat(b)] |= 1; }
    else if (b.y == a.y + 1) { links[flat(a)] |= 4; links[flat(b)] |= 8; }
    else { links[flat(a)] |= 8; links[flat(b)] |= 4; }
  }

  // Box-drawing glyph per link mask (E=1, W=2, N=4, S=8).
  static const std::array<const char*, 16> glyph = {
      "·",  // isolated
      "╶", "╴", "─",        // E, W, EW
      "╵", "└", "┘", "┴",   // N, NE, NW, NEW
      "╷", "┌", "┐", "┬",   // S, SE, SW, SEW
      "│", "├", "┤", "┼",   // NS, NSE, NSW, NSEW
  };

  std::ostringstream os;
  for (int y = side - 1; y >= 0; --y) {
    for (int x = 0; x < side; ++x) {
      const int mask = links[static_cast<std::size_t>(y) *
                                 static_cast<std::size_t>(side) +
                             static_cast<std::size_t>(x)];
      os << glyph[static_cast<std::size_t>(mask)];
      // Horizontal filler between columns keeps the aspect ratio square-ish.
      if (x + 1 < side) os << ((mask & 1) ? "─" : " ");
    }
    os << '\n';
  }
  return os.str();
}

std::string render_order(const std::vector<cell>& curve, int side) {
  SFP_REQUIRE(side >= 1, "side must be positive");
  const auto index = curve_index(curve, side);
  int width = 1;
  for (std::size_t n = curve.size(); n >= 10; n /= 10) ++width;

  std::ostringstream os;
  char buf[32];
  for (int y = side - 1; y >= 0; --y) {
    for (int x = 0; x < side; ++x) {
      std::snprintf(buf, sizeof buf, "%*lld ", width,
                    static_cast<long long>(
                        index[static_cast<std::size_t>(y) *
                                  static_cast<std::size_t>(side) +
                              static_cast<std::size_t>(x)]));
      os << buf;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace sfp::sfc
