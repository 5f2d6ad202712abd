#include "mgp/kway.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mgp/bisect.hpp"
#include "mgp/coarsen.hpp"
#include "mgp/options.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace sfp::mgp {

namespace {

/// Interface count of vertex u: number of distinct parts other than its own
/// among its neighbours — u's contribution to METIS-style total
/// communication volume.
int interfaces_of(const graph::csr& g, const std::vector<graph::vid>& labels,
                  graph::vid u) {
  const graph::vid pu = labels[static_cast<std::size_t>(u)];
  int count = 0;
  graph::vid seen[9];  // degree <= 8 on the cubed-sphere dual; general path below
  int nseen = 0;
  for (const graph::vid n : g.neighbors(u)) {
    const graph::vid pn = labels[static_cast<std::size_t>(n)];
    if (pn == pu) continue;
    bool dup = false;
    for (int i = 0; i < nseen; ++i) dup |= (seen[i] == pn);
    if (!dup) {
      if (nseen < 9) seen[nseen++] = pn;
      ++count;
    }
  }
  if (g.degree(u) <= 9) return count;
  // High-degree fallback: exact distinct count.
  std::vector<graph::vid> parts;
  for (const graph::vid n : g.neighbors(u)) {
    const graph::vid pn = labels[static_cast<std::size_t>(n)];
    if (pn != pu) parts.push_back(pn);
  }
  std::sort(parts.begin(), parts.end());
  parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  return static_cast<int>(parts.size());
}

/// Change in total communication volume if v moves from its part to `q`:
/// recompute the contributions of v and its neighbours locally.
int volume_delta(const graph::csr& g, std::vector<graph::vid>& labels,
                 graph::vid v, graph::vid q) {
  const graph::vid p = labels[static_cast<std::size_t>(v)];
  int before = interfaces_of(g, labels, v);
  for (const graph::vid u : g.neighbors(v)) before += interfaces_of(g, labels, u);
  labels[static_cast<std::size_t>(v)] = q;
  int after = interfaces_of(g, labels, v);
  for (const graph::vid u : g.neighbors(v)) after += interfaces_of(g, labels, u);
  labels[static_cast<std::size_t>(v)] = p;
  return after - before;
}

}  // namespace

int kway_refine(const graph::csr& g, std::vector<graph::vid>& labels,
                int nparts, kway_objective objective, double tol,
                int max_passes, rng& r) {
  const graph::vid nv = g.num_vertices();
  SFP_REQUIRE(labels.size() == static_cast<std::size_t>(nv),
              "labels must cover the graph");
  const double ideal =
      static_cast<double>(g.total_vertex_weight()) / nparts;
  const auto allow =
      static_cast<graph::weight>(std::ceil(tol * ideal));

  std::vector<graph::weight> part_w(static_cast<std::size_t>(nparts), 0);
  std::vector<std::int64_t> part_n(static_cast<std::size_t>(nparts), 0);
  for (graph::vid v = 0; v < nv; ++v) {
    part_w[static_cast<std::size_t>(labels[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
    ++part_n[static_cast<std::size_t>(labels[static_cast<std::size_t>(v)])];
  }

  std::vector<graph::vid> order(static_cast<std::size_t>(nv));
  std::iota(order.begin(), order.end(), 0);

  // Per-vertex connectivity scratch: weight of edges into each adjacent part.
  std::vector<graph::weight> conn;
  std::vector<graph::vid> touched;

  int total_moves = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(r.below(i))]);

    int moves = 0;
    for (const graph::vid v : order) {
      const graph::vid p = labels[static_cast<std::size_t>(v)];
      if (part_n[static_cast<std::size_t>(p)] <= 1) continue;  // keep parts non-empty
      const auto nbrs = g.neighbors(v);
      const auto wgts = g.neighbor_weights(v);

      conn.assign(static_cast<std::size_t>(nparts), 0);
      touched.clear();
      bool boundary = false;
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        const graph::vid pn = labels[static_cast<std::size_t>(nbrs[j])];
        if (conn[static_cast<std::size_t>(pn)] == 0 && pn != p)
          touched.push_back(pn);
        conn[static_cast<std::size_t>(pn)] += wgts[j];
        boundary |= (pn != p);
      }
      if (!boundary) continue;

      const graph::weight wv = g.vertex_weight(v);
      const graph::weight internal = conn[static_cast<std::size_t>(p)];

      graph::vid best_q = -1;
      graph::weight best_cut_gain = 0;
      int best_vol_delta = 0;
      bool best_balance_gain = false;
      for (const graph::vid q : touched) {
        if (part_w[static_cast<std::size_t>(q)] + wv > allow) continue;
        const graph::weight cut_gain =
            conn[static_cast<std::size_t>(q)] - internal;
        const bool balance_gain = part_w[static_cast<std::size_t>(q)] + wv <
                                  part_w[static_cast<std::size_t>(p)];
        bool take = false;
        int vol_d = 0;
        if (objective == kway_objective::edgecut) {
          // Accept strictly improving moves; accept neutral moves that
          // improve balance.
          if (cut_gain > 0 || (cut_gain == 0 && balance_gain)) {
            take = best_q == -1 || cut_gain > best_cut_gain ||
                   (cut_gain == best_cut_gain && balance_gain &&
                    !best_balance_gain);
          }
        } else {
          vol_d = volume_delta(g, labels, v, q);
          if (vol_d < 0 || (vol_d == 0 && (cut_gain > 0 || balance_gain))) {
            take = best_q == -1 || vol_d < best_vol_delta ||
                   (vol_d == best_vol_delta && cut_gain > best_cut_gain);
          }
        }
        if (take) {
          best_q = q;
          best_cut_gain = cut_gain;
          best_vol_delta = vol_d;
          best_balance_gain = balance_gain;
        }
      }

      if (best_q != -1) {
        labels[static_cast<std::size_t>(v)] = best_q;
        part_w[static_cast<std::size_t>(p)] -= wv;
        part_w[static_cast<std::size_t>(best_q)] += wv;
        --part_n[static_cast<std::size_t>(p)];
        ++part_n[static_cast<std::size_t>(best_q)];
        ++moves;
      }
    }
    total_moves += moves;
    if (moves == 0) break;
  }

  // Hard balance enforcement: any part above the allowance sheds boundary
  // vertices at least cut damage (kmetis-style); if an overweight part has
  // no feasible boundary move, its lightest vertex teleports to the lightest
  // part with room. Guarantees max part weight <= allow whenever a feasible
  // assignment exists.
  const int max_rounds = 4 * static_cast<int>(nv) + nparts;
  for (int round = 0; round < max_rounds; ++round) {
    graph::vid worst = 0;
    for (graph::vid q = 1; q < nparts; ++q)
      if (part_w[static_cast<std::size_t>(q)] >
          part_w[static_cast<std::size_t>(worst)])
        worst = q;
    if (part_w[static_cast<std::size_t>(worst)] <= allow) break;

    graph::vid best_v = -1, best_q = -1;
    graph::weight best_gain = 0;
    bool have = false;
    for (const graph::vid v : order) {
      if (labels[static_cast<std::size_t>(v)] != worst) continue;
      if (part_n[static_cast<std::size_t>(worst)] <= 1) break;
      const graph::weight wv = g.vertex_weight(v);
      conn.assign(static_cast<std::size_t>(nparts), 0);
      touched.clear();
      for (std::size_t j = 0; j < g.neighbors(v).size(); ++j) {
        const graph::vid pn =
            labels[static_cast<std::size_t>(g.neighbors(v)[j])];
        if (conn[static_cast<std::size_t>(pn)] == 0 && pn != worst)
          touched.push_back(pn);
        conn[static_cast<std::size_t>(pn)] += g.neighbor_weights(v)[j];
      }
      for (const graph::vid q : touched) {
        if (part_w[static_cast<std::size_t>(q)] + wv > allow) continue;
        const graph::weight cut_gain =
            conn[static_cast<std::size_t>(q)] -
            conn[static_cast<std::size_t>(worst)];
        if (!have || cut_gain > best_gain) {
          have = true;
          best_v = v;
          best_q = q;
          best_gain = cut_gain;
        }
      }
    }
    if (!have) {
      // Teleport: lightest vertex of the overweight part to the globally
      // lightest part that can take it.
      graph::vid lightest_part = -1;
      for (graph::vid q = 0; q < nparts; ++q) {
        if (q == worst) continue;
        if (lightest_part == -1 ||
            part_w[static_cast<std::size_t>(q)] <
                part_w[static_cast<std::size_t>(lightest_part)])
          lightest_part = q;
      }
      for (const graph::vid v : order) {
        if (labels[static_cast<std::size_t>(v)] != worst) continue;
        if (best_v == -1 || g.vertex_weight(v) < g.vertex_weight(best_v))
          best_v = v;
      }
      if (lightest_part == -1 || best_v == -1 ||
          part_w[static_cast<std::size_t>(lightest_part)] +
                  g.vertex_weight(best_v) >
              allow)
        break;  // no feasible assignment at this granularity
      best_q = lightest_part;
    }
    const graph::weight wv = g.vertex_weight(best_v);
    labels[static_cast<std::size_t>(best_v)] = best_q;
    part_w[static_cast<std::size_t>(worst)] -= wv;
    part_w[static_cast<std::size_t>(best_q)] += wv;
    --part_n[static_cast<std::size_t>(worst)];
    ++part_n[static_cast<std::size_t>(best_q)];
    ++total_moves;
  }
  return total_moves;
}

partition::partition kway_partition(const graph::csr& g, int nparts,
                                    kway_objective objective, rng& r) {
  SFP_OBS_TIMED_SCOPE("mgp.kway");
  SFP_REQUIRE(nparts >= 1, "need at least one part");
  SFP_REQUIRE(nparts <= g.num_vertices(), "more parts than vertices");
  if (nparts == 1) {
    return partition::partition(
        1, std::vector<graph::vid>(static_cast<std::size_t>(g.num_vertices()), 0));
  }

  // Coarsen to ~4 vertices per part (kmetis-style); never below nparts.
  const graph::vid coarse_target =
      std::max<graph::vid>(static_cast<graph::vid>(nparts) * 4, coarsen_to);
  const graph::weight max_vwgt = std::max<graph::weight>(
      1, (3 * g.total_vertex_weight()) /
             (2 * std::max<graph::weight>(1, coarse_target)));
  hierarchy h = coarsen(g, coarse_target, max_vwgt, r);

  // Initial k-way partition on the coarsest graph via recursive bisection
  // (tight tolerance; the k-way refinement then trades balance for the
  // objective on the way back up).
  std::vector<graph::vid> labels;
  {
    SFP_OBS_TIMED_SCOPE("mgp.initial");
    labels = recursive_bisection(h.coarsest(), nparts, r).part_of;
    kway_refine(h.coarsest(), labels, nparts, objective, imbalance_tol,
                refine_passes, r);
  }

  {
    SFP_OBS_TIMED_SCOPE("mgp.refine");
    for (std::size_t lvl = h.levels.size(); lvl-- > 1;) {
      labels = project(h.levels[lvl], labels);
      kway_refine(h.levels[lvl - 1].g, labels, nparts, objective,
                  imbalance_tol, refine_passes, r);
    }
  }
  return partition::partition(nparts, std::move(labels));
}

}  // namespace sfp::mgp
