#include "sfc/point_query.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <span>
#include <vector>

#include "sfc/generator.hpp"
#include "util/require.hpp"

namespace sfp::sfc {

namespace {

constexpr std::uint32_t kStates = 8;
constexpr std::uint16_t kUnset = 0xFFFF;
constexpr std::int64_t kMaxSide = std::int64_t{1} << 20;
// The largest merged level: a 16×16 block, a 4 KB table.
constexpr int kMaxMerged = 16;
constexpr int kMagicShift = 40;

struct vec {
  int x, y;
  friend bool operator==(const vec&, const vec&) = default;
};

/// A frame state's unit vectors along A and B.
struct basis {
  vec a, b;
};

/// The images of +x and +y under `t`, read off apply() on a probe grid
/// (the cell map is affine, so differences of images are its linear part).
basis basis_of(dihedral t) {
  constexpr int kProbe = 3;
  const cell o = apply(t, {0, 0}, kProbe);
  const cell ex = apply(t, {1, 0}, kProbe);
  const cell ey = apply(t, {0, 1}, kProbe);
  return {{ex.x - o.x, ex.y - o.y}, {ey.x - o.x, ey.y - o.y}};
}

dihedral state_of(vec a, vec b) {
  for (const dihedral t : all_dihedrals) {
    const basis u = basis_of(t);
    if (u.a == a && u.b == b) return t;
  }
  SFP_REQUIRE(false, "frame vectors are not a symmetry of the square");
  return dihedral::identity;
}

/// One level's transition table and its inverse (see point_query.hpp).
struct level_tables {
  std::vector<std::uint16_t> next;
  std::vector<std::uint16_t> inverse;
};

/// An inverse-table entry: the digit cell (dx, dy), then the next state.
std::uint16_t cell_entry(int dx, int dy, std::uint32_t state) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint32_t>(dy << 4 | dx) << 3 | state);
}

/// One level of the frame descent, tabulated. For every frame state, lay
/// the generator's children out in the f×f block and record, at each
/// child's digit cell, its index in generator order and its own state —
/// and, at each child index, its digit cell and its own state.
level_tables build_table(int f) {
  const std::vector<child_frame>& gen = generator_for(f);
  const auto cells = static_cast<std::uint32_t>(f * f);
  level_tables out{std::vector<std::uint16_t>(cells * kStates, kUnset),
                   std::vector<std::uint16_t>(cells * kStates)};
  std::vector<std::uint16_t>& next = out.next;
  for (const dihedral t : all_dihedrals) {
    const basis u = basis_of(t);
    // The frame maps the block onto itself, so its origin sits at f on
    // every axis that A or B runs backwards along.
    const int ox = (u.a.x < 0 || u.b.x < 0) ? f : 0;
    const int oy = (u.a.y < 0 || u.b.y < 0) ? f : 0;
    for (std::size_t k = 0; k < gen.size(); ++k) {
      const child_frame& cs = gen[k];
      const vec o{ox + cs.oa * u.a.x + cs.ob * u.b.x,
                  oy + cs.oa * u.a.y + cs.ob * u.b.y};
      const vec a{cs.aa * u.a.x + cs.ab * u.b.x, cs.aa * u.a.y + cs.ab * u.b.y};
      const vec b{cs.ba * u.a.x + cs.bb * u.b.x, cs.ba * u.a.y + cs.bb * u.b.y};
      // The child's unit cell: the componentwise min of its frame's two
      // opposite corners.
      const int dx = std::min(o.x, o.x + a.x + b.x);
      const int dy = std::min(o.y, o.y + a.y + b.y);
      SFP_REQUIRE(dx >= 0 && dx < f && dy >= 0 && dy < f,
                  "generator child lies outside its block");
      const auto slot = static_cast<std::uint32_t>(dy * f + dx) * kStates +
                        static_cast<std::uint32_t>(t);
      SFP_REQUIRE(next[slot] == kUnset,
                  "generator children do not tile the block");
      const auto state = static_cast<std::uint32_t>(state_of(a, b));
      next[slot] = static_cast<std::uint16_t>(k << 3 | state);
      out.inverse[k * kStates + static_cast<std::uint32_t>(t)] =
          cell_entry(dx, dy, state);
    }
  }
  return out;
}

const level_tables& table_for(int factor, int run);

/// `run` levels of factor f as one level of factor f^run: descend the
/// single-level table through each cell's base-f digits.
level_tables compose_table(int f, int run) {
  const std::uint16_t* one = table_for(f, 1).next.data();
  int block = 1;
  for (int k = 0; k < run; ++k) block *= f;
  const auto cells = static_cast<std::uint32_t>(block * block);
  level_tables out{std::vector<std::uint16_t>(cells * kStates),
                   std::vector<std::uint16_t>(cells * kStates)};
  for (std::uint32_t t = 0; t < kStates; ++t)
    for (int y = 0; y < block; ++y)
      for (int x = 0; x < block; ++x) {
        std::uint32_t state = t, child = 0;
        for (int sub = block / f; sub >= 1; sub /= f) {
          const int dx = x / sub % f, dy = y / sub % f;
          const std::uint32_t e =
              one[static_cast<std::uint32_t>(dy * f + dx) * kStates + state];
          state = e & (kStates - 1);
          child = child * static_cast<std::uint32_t>(f * f) + (e >> 3);
        }
        out.next[static_cast<std::uint32_t>(y * block + x) * kStates + t] =
            static_cast<std::uint16_t>(child << 3 | state);
        out.inverse[child * kStates + t] = cell_entry(x, y, state);
      }
  return out;
}

/// The memoised tables for `run` levels of `factor` (2 <= factor <=
/// max_factor, factor^run <= kMaxMerged). The hit path is call_once's
/// acquire load: no lock, no map.
const level_tables& table_for(int factor, int run) {
  struct slot {
    std::once_flag once;
    level_tables tables;
  };
  static std::array<std::array<slot, 5>, max_factor + 1> cache;
  slot& s = cache[static_cast<std::size_t>(factor)][static_cast<std::size_t>(run)];
  std::call_once(s.once, [&] {
    s.tables = run == 1 ? build_table(factor) : compose_table(factor, run);
  });
  return s.tables;
}

}  // namespace

curve_locator::curve_locator(const std::vector<int>& factors) {
  compile(factors);
}

curve_locator::curve_locator(const schedule& s) {
  SFP_REQUIRE(s.size() <= max_levels, "curve side too large");
  std::array<int, max_levels> factors{};
  for (std::size_t l = 0; l < s.size(); ++l) factors[l] = factor_of(s[l]);
  compile({factors.data(), s.size()});
}

void curve_locator::compile(std::span<const int> factors) {
  std::int64_t side = 1;
  for (const int f : factors) {
    SFP_REQUIRE(f >= 2, "refinement factors must be at least 2");
    SFP_REQUIRE(f <= max_factor, "generator search capped at factor 16");
    side *= f;
    SFP_REQUIRE(side <= kMaxSide, "curve side too large");
  }
  side_ = static_cast<int>(side);
  // Merge each run of equal factors into levels of at most kMaxMerged.
  // The side cap bounds the factor count, hence the depth, by max_levels.
  for (std::size_t l = 0; l < factors.size();) {
    const int f = factors[l];
    int run = 1, block = f;
    while (l + static_cast<std::size_t>(run) < factors.size() &&
           factors[l + static_cast<std::size_t>(run)] == f &&
           block * f <= kMaxMerged) {
      block *= f;
      ++run;
    }
    const level_tables& tables = table_for(f, run);
    levels_[depth_++] = {tables.next.data(), tables.inverse.data(), 0, 0,
                         static_cast<std::uint32_t>(block)};
    l += static_cast<std::size_t>(run);
  }
  // Level l's digit is (x / sub) mod f, sub the product of the factors
  // below it; precompute the reciprocal of every sub, innermost first.
  std::uint64_t sub = 1, area = 1;  // area = sub²
  for (std::size_t l = depth_; l-- > 0;) {
    levels_[l].magic = (std::uint64_t{1} << kMagicShift) / sub + 1;
    levels_[l].area_below = area;
    sub *= levels_[l].factor;
    area *= levels_[l].factor;
    area *= levels_[l].factor;
  }
}

std::int64_t curve_locator::position(cell c, dihedral orientation) const {
  SFP_REQUIRE(c.x >= 0 && c.x < side_ && c.y >= 0 && c.y < side_,
              "cell out of range for this factor list");
  auto state = static_cast<std::uint32_t>(orientation);
  SFP_REQUIRE(state < kStates, "invalid dihedral");
  const auto x = static_cast<std::uint64_t>(c.x);
  const auto y = static_cast<std::uint64_t>(c.y);
  // q = x / sub at each level, so the digit is q minus f times the
  // previous level's q.
  std::uint64_t qx_above = 0, qy_above = 0;
  std::int64_t pos = 0;
  for (std::size_t l = 0; l < depth_; ++l) {
    const level& lv = levels_[l];
    const std::uint64_t qx = (x * lv.magic) >> kMagicShift;
    const std::uint64_t qy = (y * lv.magic) >> kMagicShift;
    const std::uint64_t dx = qx - qx_above * lv.factor;
    const std::uint64_t dy = qy - qy_above * lv.factor;
    qx_above = qx;
    qy_above = qy;
    const std::uint32_t e = lv.next[(dy * lv.factor + dx) * kStates + state];
    state = e & (kStates - 1);
    pos = pos * (lv.factor * lv.factor) + (e >> 3);
  }
  return pos;
}

cell curve_locator::cell_at(std::int64_t pos, dihedral orientation) const {
  SFP_REQUIRE(pos >= 0 && pos < std::int64_t{side_} * side_,
              "position out of range for this factor list");
  auto state = static_cast<std::uint32_t>(orientation);
  SFP_REQUIRE(state < kStates, "invalid dihedral");
  // Each level's child index is the next base-f² digit of the position,
  // most significant first.
  auto rest = static_cast<std::uint64_t>(pos);
  std::uint32_t x = 0, y = 0;
  for (std::size_t l = 0; l < depth_; ++l) {
    const level& lv = levels_[l];
    const std::uint64_t child = rest / lv.area_below;
    rest -= child * lv.area_below;
    const std::uint32_t e = lv.inverse[child * kStates + state];
    state = e & (kStates - 1);
    x = x * lv.factor + (e >> 3 & 0xF);
    y = y * lv.factor + (e >> 7);
  }
  return {static_cast<int>(x), static_cast<int>(y)};
}

std::int64_t curve_position(const schedule& s, cell c) {
  return curve_locator(s).position(c);
}

std::int64_t curve_position_factors(const std::vector<int>& factors, cell c) {
  return curve_locator(factors).position(c);
}

}  // namespace sfp::sfc
