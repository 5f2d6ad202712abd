#include "mgp/bisect.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "graph/ops.hpp"
#include "mgp/coarsen.hpp"
#include "mgp/options.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace sfp::mgp {

namespace {

/// Hard feasibility bound: floor-based so a tight tolerance (e.g. 1.001)
/// stays exact under integer weights instead of rounding a whole extra
/// vertex in.
graph::weight allowance(graph::weight target, double tol) {
  return std::max(target, static_cast<graph::weight>(
                              std::floor(tol * static_cast<double>(target))));
}

/// Gain of moving v to the other side: external minus internal edge weight.
graph::weight gain_of(const graph::csr& g,
                      const std::vector<graph::vid>& side, graph::vid v) {
  const auto nbrs = g.neighbors(v);
  const auto wgts = g.neighbor_weights(v);
  graph::weight gain = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i)
    gain += (side[static_cast<std::size_t>(nbrs[i])] !=
             side[static_cast<std::size_t>(v)])
                ? wgts[i]
                : -wgts[i];
  return gain;
}

/// Greedy graph growing: BFS from `seed`, absorbing vertices into side 0
/// until its weight reaches target0 (stopping at whichever prefix lands
/// closer). Disconnected leftovers go to side 1.
std::vector<graph::vid> grow_initial(const graph::csr& g, graph::vid seed,
                                     graph::weight target0) {
  const graph::vid nv = g.num_vertices();
  std::vector<graph::vid> side(static_cast<std::size_t>(nv), 1);
  std::vector<bool> visited(static_cast<std::size_t>(nv), false);
  std::queue<graph::vid> frontier;
  frontier.push(seed);
  visited[static_cast<std::size_t>(seed)] = true;
  graph::weight w0 = 0;
  while (!frontier.empty() && w0 < target0) {
    const graph::vid v = frontier.front();
    frontier.pop();
    const graph::weight wv = g.vertex_weight(v);
    // Stop before absorbing v if that leaves us closer to the target.
    if (w0 + wv - target0 > target0 - w0) break;
    side[static_cast<std::size_t>(v)] = 0;
    w0 += wv;
    for (const graph::vid u : g.neighbors(v)) {
      if (!visited[static_cast<std::size_t>(u)]) {
        visited[static_cast<std::size_t>(u)] = true;
        frontier.push(u);
      }
    }
  }
  // If the seed's component ran out before reaching the target, absorb
  // unvisited vertices (disconnected graphs) until the target is met.
  for (graph::vid v = 0; v < nv && w0 < target0; ++v) {
    if (!visited[static_cast<std::size_t>(v)]) {
      visited[static_cast<std::size_t>(v)] = true;
      side[static_cast<std::size_t>(v)] = 0;
      w0 += g.vertex_weight(v);
    }
  }
  return side;
}

struct candidate {
  graph::weight gain;
  std::uint64_t tiebreak;
  graph::vid v;
  bool operator<(const candidate& o) const {
    // priority_queue is a max-heap; highest gain first, then random tiebreak.
    if (gain != o.gain) return gain < o.gain;
    return tiebreak < o.tiebreak;
  }
};

}  // namespace

graph::weight fm_refine(const graph::csr& g, std::vector<graph::vid>& side,
                        graph::weight target0, double tol, int max_passes,
                        rng& r) {
  const graph::vid nv = g.num_vertices();
  SFP_REQUIRE(side.size() == static_cast<std::size_t>(nv),
              "side labels must cover the graph");
  const graph::weight total = g.total_vertex_weight();
  const graph::weight target[2] = {target0, total - target0};
  const graph::weight allow[2] = {allowance(target0, tol),
                                  allowance(total - target0, tol)};
  // Moves may pass through mildly infeasible states (classic FM hill
  // climbing): one max-weight vertex of slack beyond the hard bound. Only
  // states within `allow` count as feasible when selecting the best prefix.
  graph::weight max_vwgt = 1;
  for (graph::vid v = 0; v < nv; ++v)
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  const graph::weight slack[2] = {
      std::max(allow[0], target[0] + max_vwgt),
      std::max(allow[1], target[1] + max_vwgt)};

  graph::weight w[2] = {0, 0};
  for (graph::vid v = 0; v < nv; ++v)
    w[side[static_cast<std::size_t>(v)]] += g.vertex_weight(v);
  graph::weight cut = graph::cut_weight(g, side);

  const auto imbalance = [&](graph::weight w0) {
    return std::abs(w0 - target[0]);
  };
  const auto feasible = [&](graph::weight w0) {
    return w0 <= allow[0] && (total - w0) <= allow[1];
  };

  std::vector<graph::weight> gain(static_cast<std::size_t>(nv));
  std::vector<bool> moved(static_cast<std::size_t>(nv));

  for (int pass = 0; pass < max_passes; ++pass) {
    std::fill(moved.begin(), moved.end(), false);
    std::priority_queue<candidate> pq;
    for (graph::vid v = 0; v < nv; ++v) {
      gain[static_cast<std::size_t>(v)] = gain_of(g, side, v);
      pq.push({gain[static_cast<std::size_t>(v)], r(), v});
    }

    // Best state seen this pass: prefer feasible, then lowest cut, then
    // lowest imbalance. Position 0 = the starting state.
    struct snapshot {
      bool feas;
      graph::weight cut;
      graph::weight imb;
    };
    snapshot best{feasible(w[0]), cut, imbalance(w[0])};
    std::size_t best_prefix = 0;
    std::vector<graph::vid> trail;

    const auto better = [](const snapshot& a, const snapshot& b) {
      if (a.feas != b.feas) return a.feas;
      if (a.cut != b.cut) return a.cut < b.cut;
      return a.imb < b.imb;
    };

    while (!pq.empty()) {
      const candidate c = pq.top();
      pq.pop();
      const graph::vid v = c.v;
      if (moved[static_cast<std::size_t>(v)] ||
          c.gain != gain[static_cast<std::size_t>(v)])
        continue;  // stale entry
      const graph::vid s = side[static_cast<std::size_t>(v)];
      const graph::vid t = 1 - s;
      const graph::weight wv = g.vertex_weight(v);
      const graph::weight new_w0 = (s == 0) ? w[0] - wv : w[0] + wv;
      // A move is admissible if the destination stays within the slack
      // bound, or if it strictly improves balance (escape hatch for
      // infeasible starts).
      const bool dest_ok = (w[t] + wv) <= slack[t];
      const bool helps_balance = imbalance(new_w0) < imbalance(w[0]);
      if (!dest_ok && !helps_balance) continue;

      // Apply the move.
      side[static_cast<std::size_t>(v)] = t;
      moved[static_cast<std::size_t>(v)] = true;
      w[s] -= wv;
      w[t] += wv;
      cut -= gain[static_cast<std::size_t>(v)];
      trail.push_back(v);
      gain[static_cast<std::size_t>(v)] = -gain[static_cast<std::size_t>(v)];
      const auto nbrs = g.neighbors(v);
      const auto wgts = g.neighbor_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const graph::vid u = nbrs[i];
        if (moved[static_cast<std::size_t>(u)]) continue;
        // u's gain changes by ±2*w(u,v) depending on whether v joined or
        // left u's side.
        gain[static_cast<std::size_t>(u)] +=
            (side[static_cast<std::size_t>(u)] == t) ? -2 * wgts[i]
                                                     : 2 * wgts[i];
        pq.push({gain[static_cast<std::size_t>(u)], r(), u});
      }

      const snapshot now{feasible(w[0]), cut, imbalance(w[0])};
      if (better(now, best)) {
        best = now;
        best_prefix = trail.size();
      }
    }

    // Roll back to the best prefix.
    bool changed = best_prefix > 0;
    while (trail.size() > best_prefix) {
      const graph::vid v = trail.back();
      trail.pop_back();
      const graph::vid s = side[static_cast<std::size_t>(v)];
      const graph::vid t = 1 - s;
      side[static_cast<std::size_t>(v)] = t;
      w[s] -= g.vertex_weight(v);
      w[t] += g.vertex_weight(v);
    }
    cut = best.cut;
    if (!changed) break;  // pass converged
  }
  return cut;
}

std::vector<graph::vid> bisect(const graph::csr& g, graph::weight target0,
                               double tol, rng& r) {
  SFP_REQUIRE(target0 > 0 && target0 < g.total_vertex_weight(),
              "bisection target must be strictly between 0 and total weight");
  // Cap coarse vertex weight so the coarsest graph remains splittable near
  // the target (METIS-style 1.5 * total / coarsen_to).
  const graph::weight max_vwgt = std::max<graph::weight>(
      1, (3 * g.total_vertex_weight()) / (2 * coarsen_to));
  hierarchy h = coarsen(g, coarsen_to, max_vwgt, r);

  // Initial bisection at the coarsest level: several greedy growings, keep
  // the best after refinement.
  const graph::csr& cg = h.coarsest();
  std::vector<graph::vid> best_side;
  {
    SFP_OBS_TIMED_SCOPE("mgp.initial");
    graph::weight best_cut = 0;
    bool have_best = false;
    for (int trial = 0; trial < init_trials; ++trial) {
      const auto seed = static_cast<graph::vid>(
          r.below(static_cast<std::uint64_t>(cg.num_vertices())));
      std::vector<graph::vid> side = grow_initial(cg, seed, target0);
      const graph::weight cut =
          fm_refine(cg, side, target0, tol, refine_passes, r);
      if (!have_best || cut < best_cut) {
        best_side = std::move(side);
        best_cut = cut;
        have_best = true;
      }
    }
  }

  // Uncoarsen with refinement at every level.
  std::vector<graph::vid> side = std::move(best_side);
  {
    SFP_OBS_TIMED_SCOPE("mgp.refine");
    for (std::size_t lvl = h.levels.size(); lvl-- > 1;) {
      side = project(h.levels[lvl], side);
      fm_refine(h.levels[lvl - 1].g, side, target0, tol, refine_passes, r);
    }
  }
  return side;
}

namespace {

void rb_recurse(const graph::csr& g, const std::vector<graph::vid>& global_ids,
                int nparts, int first_label, rng& r,
                std::vector<graph::vid>& out) {
  if (nparts == 1) {
    for (const graph::vid id : global_ids)
      out[static_cast<std::size_t>(id)] = first_label;
    return;
  }
  const int k0 = nparts / 2;
  const int k1 = nparts - k0;
  const graph::weight target0 = static_cast<graph::weight>(
      (static_cast<double>(g.total_vertex_weight()) * k0) / nparts + 0.5);
  // RB keeps every split essentially exact (METIS pmetis behaviour: balance
  // first, cut second); the floor-based allowance makes 1.001 a hard split.
  const double tol = 1.001;
  std::vector<graph::vid> side =
      bisect(g, std::max<graph::weight>(1, target0), tol, r);

  std::vector<graph::vid> keep0, keep1;
  for (graph::vid v = 0; v < g.num_vertices(); ++v)
    (side[static_cast<std::size_t>(v)] == 0 ? keep0 : keep1).push_back(v);
  // A degenerate side (possible on tiny graphs) is repaired by stealing one
  // vertex; both sides must be non-empty to host k0/k1 >= 1 parts.
  if (keep0.empty()) {
    keep0.push_back(keep1.back());
    keep1.pop_back();
  } else if (keep1.empty()) {
    keep1.push_back(keep0.back());
    keep0.pop_back();
  }

  std::vector<graph::vid> old0, old1;
  const graph::csr g0 = graph::induced_subgraph(g, keep0, old0);
  const graph::csr g1 = graph::induced_subgraph(g, keep1, old1);
  std::vector<graph::vid> ids0(old0.size()), ids1(old1.size());
  for (std::size_t i = 0; i < old0.size(); ++i)
    ids0[i] = global_ids[static_cast<std::size_t>(old0[i])];
  for (std::size_t i = 0; i < old1.size(); ++i)
    ids1[i] = global_ids[static_cast<std::size_t>(old1[i])];
  rb_recurse(g0, ids0, k0, first_label, r, out);
  rb_recurse(g1, ids1, k1, first_label + k0, r, out);
}

}  // namespace

partition::partition recursive_bisection(const graph::csr& g, int nparts,
                                         rng& r) {
  SFP_OBS_TIMED_SCOPE("mgp.bisect");
  SFP_REQUIRE(nparts >= 1, "need at least one part");
  SFP_REQUIRE(nparts <= g.num_vertices(), "more parts than vertices");
  partition::partition p;
  p.num_parts = nparts;
  p.part_of.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<graph::vid> ids(static_cast<std::size_t>(g.num_vertices()));
  std::iota(ids.begin(), ids.end(), 0);
  rb_recurse(g, ids, nparts, 0, r, p.part_of);
  return p;
}

}  // namespace sfp::mgp
