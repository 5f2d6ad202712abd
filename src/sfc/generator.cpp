#include "sfc/generator.hpp"

#include <array>
#include <cstdlib>
#include <mutex>
#include <queue>

#include "util/contract.hpp"

namespace sfp::sfc {

namespace {

struct pt {
  int x, y;
  friend bool operator==(const pt&, const pt&) = default;
};

/// DFS for the child chain: a Hamiltonian cell path with corner chaining.
class searcher {
 public:
  explicit searcher(int f) : f_(f), visited_(static_cast<std::size_t>(f * f), false) {}

  bool run(std::vector<pt>& cells, std::vector<pt>& entries) {
    cells_.clear();
    entries_.clear();
    visited_.assign(visited_.size(), false);
    if (!dfs({0, 0}, {0, 0})) return false;
    cells = cells_;
    entries = entries_;
    return true;
  }

 private:
  std::size_t idx(pt c) const {
    return static_cast<std::size_t>(c.y * f_ + c.x);
  }
  bool in_grid(pt c) const {
    return c.x >= 0 && c.x < f_ && c.y >= 0 && c.y < f_;
  }
  static bool corner_of(pt corner, pt cell) {
    return (corner.x == cell.x || corner.x == cell.x + 1) &&
           (corner.y == cell.y || corner.y == cell.y + 1);
  }

  /// Remaining cells must stay connected and include the final cell.
  bool viable(pt current) const {
    const std::size_t n = visited_.size();
    std::size_t unvisited = 0;
    for (const bool v : visited_) unvisited += !v;
    if (unvisited == 0) return true;
    // BFS over unvisited cells from any unvisited neighbour of `current`.
    std::vector<bool> seen(n, false);
    std::queue<pt> frontier;
    const pt steps[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    for (const pt s : steps) {
      const pt nb{current.x + s.x, current.y + s.y};
      if (in_grid(nb) && !visited_[idx(nb)] && !seen[idx(nb)]) {
        seen[idx(nb)] = true;
        frontier.push(nb);
      }
    }
    std::size_t reached = 0;
    while (!frontier.empty()) {
      const pt c = frontier.front();
      frontier.pop();
      ++reached;
      for (const pt s : steps) {
        const pt nb{c.x + s.x, c.y + s.y};
        if (in_grid(nb) && !visited_[idx(nb)] && !seen[idx(nb)]) {
          seen[idx(nb)] = true;
          frontier.push(nb);
        }
      }
    }
    return reached == unvisited;
  }

  bool dfs(pt cell, pt entry) {
    visited_[idx(cell)] = true;
    cells_.push_back(cell);
    entries_.push_back(entry);

    const bool complete = cells_.size() == visited_.size();
    if (complete) {
      // The last child must exit at (f, 0): adjacent to its entry corner
      // and a corner of the last cell.
      const pt want{f_, 0};
      const bool ok =
          corner_of(want, cell) &&
          std::abs(want.x - entry.x) + std::abs(want.y - entry.y) == 1;
      if (ok) return true;
      visited_[idx(cell)] = false;
      cells_.pop_back();
      entries_.pop_back();
      return false;
    }

    // The designated final cell must not be consumed early.
    if (cell.x == f_ - 1 && cell.y == 0 && cells_.size() != visited_.size()) {
      // allowed only as the final cell
      visited_[idx(cell)] = false;
      cells_.pop_back();
      entries_.pop_back();
      return false;
    }

    if (viable(cell)) {
      // Exit corners: the two cell corners adjacent to the entry corner.
      const pt steps[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
      for (const pt s : steps) {
        const pt exit{entry.x + s.x, entry.y + s.y};
        if (!corner_of(exit, cell)) continue;
        // Next cell: an unvisited edge-neighbour of `cell` having `exit`
        // as one of its corners.
        for (const pt t : steps) {
          const pt next{cell.x + t.x, cell.y + t.y};
          if (!in_grid(next) || visited_[idx(next)]) continue;
          if (!corner_of(exit, next)) continue;
          if (dfs(next, exit)) return true;
        }
      }
    }

    visited_[idx(cell)] = false;
    cells_.pop_back();
    entries_.pop_back();
    return false;
  }

  int f_;
  std::vector<bool> visited_;
  std::vector<pt> cells_;
  std::vector<pt> entries_;
};

std::vector<child_frame> frames_from_path(int f, const std::vector<pt>& cells,
                                          const std::vector<pt>& entries) {
  std::vector<child_frame> out;
  out.reserve(cells.size());
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const pt entry = entries[k];
    const pt exit = (k + 1 < cells.size()) ? entries[k + 1] : pt{f, 0};
    child_frame cf{};
    cf.oa = entry.x;
    cf.ob = entry.y;
    cf.aa = exit.x - entry.x;
    cf.ab = exit.y - entry.y;
    // B' is perpendicular to A' and points from the entry corner into the
    // cell: exactly one sign keeps entry + B' on the cell.
    const pt cell = cells[k];
    for (const int sign : {1, -1}) {
      const int bx = -cf.ab * sign, by = cf.aa * sign;
      const pt probe{entry.x + bx, entry.y + by};
      if ((probe.x == cell.x || probe.x == cell.x + 1) &&
          (probe.y == cell.y || probe.y == cell.y + 1)) {
        cf.ba = bx;
        cf.bb = by;
        break;
      }
    }
    SFP_ASSERT(cf.ba != 0 || cf.bb != 0, "no valid secondary vector");
    out.push_back(cf);
  }
  return out;
}

// Hand-derived tables matching the paper's Figures 2 and 4/5; kept explicit
// (rather than synthesized) so the derivation in the module comment of
// curve.hpp stays auditable. Tests assert the synthesizer reproduces
// equally valid tables.
const std::vector<child_frame> kHilbert = {
    {0, 0, 0, 1, 1, 0},
    {0, 1, 1, 0, 0, 1},
    {1, 1, 1, 0, 0, 1},
    {2, 1, 0, -1, -1, 0},
};
const std::vector<child_frame> kPeano = {
    {0, 0, 0, 1, 1, 0}, {0, 1, 0, 1, 1, 0},   {0, 2, 1, 0, 0, 1},
    {1, 2, 1, 0, 0, 1}, {2, 2, 1, 0, 0, 1},   {3, 2, -1, 0, 0, -1},
    {2, 2, 0, -1, -1, 0}, {2, 1, 0, -1, -1, 0}, {2, 0, 1, 0, 0, 1},
};

}  // namespace

std::vector<child_frame> derive_generator(int factor) {
  SFP_REQUIRE(factor >= 2, "refinement factor must be at least 2");
  SFP_REQUIRE(factor <= max_factor, "generator search capped at factor 16");
  searcher s(factor);
  std::vector<pt> cells, entries;
  if (!s.run(cells, entries)) return {};
  return frames_from_path(factor, cells, entries);
}

const std::vector<child_frame>& generator_for(int factor) {
  if (factor == 2) return kHilbert;
  if (factor == 3) return kPeano;
  SFP_REQUIRE(factor >= 2, "refinement factor must be at least 2");
  SFP_REQUIRE(factor <= max_factor, "generator search capped at factor 16");
  // One slot per factor; the hit path is call_once's acquire load.
  struct slot {
    std::once_flag once;
    std::vector<child_frame> table;
  };
  static std::array<slot, max_factor + 1> cache;
  slot& s = cache[static_cast<std::size_t>(factor)];
  std::call_once(s.once, [&] { s.table = derive_generator(factor); });
  SFP_REQUIRE(!s.table.empty(),
              "no space-filling-curve generator exists for this factor");
  return s.table;
}

bool has_generator(int factor) {
  if (factor < 2 || factor > max_factor) return false;
  if (factor == 2 || factor == 3) return true;
  try {
    return !generator_for(factor).empty();
  } catch (const contract_error&) {
    return false;
  }
}

}  // namespace sfp::sfc
