// Cross-module randomized property tests: drive the full pipeline —
// mesh → curve → partition → metrics → simulated time — through random
// configurations and assert the invariants that must hold for *every* one.
// All randomness is seeded; failures reproduce exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/cube_curve.hpp"
#include "core/sfc_partition.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/partitioner.hpp"
#include "partition/metrics.hpp"
#include "perf/machine.hpp"
#include "perf/simulate.hpp"
#include "sfc/curve.hpp"
#include "sfc/validate.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfp;

/// Brute-force edgecut/TCV recomputation to cross-check compute_metrics.
struct brute_metrics {
  std::int64_t edgecut_edges = 0;
  graph::weight edgecut_weight = 0;
  double tcv_interfaces = 0;
};

brute_metrics brute_force(const graph::csr& g,
                          const partition::partition& p) {
  brute_metrics m;
  for (graph::vid v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.neighbor_weights(v);
    std::set<graph::vid> remote;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const auto pv = p.part_of[static_cast<std::size_t>(v)];
      const auto pu = p.part_of[static_cast<std::size_t>(nbrs[i])];
      if (pv == pu) continue;
      remote.insert(pu);
      if (v < nbrs[i]) {
        ++m.edgecut_edges;
        m.edgecut_weight += wgts[i];
      }
    }
    m.tcv_interfaces += static_cast<double>(remote.size());
  }
  return m;
}

TEST(Fuzz, MetricsMatchBruteForceOnRandomGraphs) {
  rng seeds(2024);
  for (int trial = 0; trial < 20; ++trial) {
    rng r(seeds());
    const auto n = static_cast<graph::vid>(10 + r.below(120));
    const auto g = graph::random_connected_graph(
        n, static_cast<graph::eid>(r.below(300)), 7, r);
    const int k = 1 + static_cast<int>(r.below(static_cast<std::uint64_t>(n)));
    partition::partition p;
    p.num_parts = k;
    p.part_of.resize(static_cast<std::size_t>(n));
    for (auto& label : p.part_of)
      label = static_cast<graph::vid>(r.below(static_cast<std::uint64_t>(k)));
    const auto fast = partition::compute_metrics(g, p);
    const auto slow = brute_force(g, p);
    ASSERT_EQ(fast.edgecut_edges, slow.edgecut_edges) << "trial " << trial;
    ASSERT_EQ(fast.edgecut_weight, slow.edgecut_weight) << "trial " << trial;
    ASSERT_DOUBLE_EQ(fast.tcv_interfaces, slow.tcv_interfaces)
        << "trial " << trial;
    // Structural invariants.
    ASSERT_LE(fast.edgecut_edges, g.num_edges());
    ASSERT_GE(fast.lb_elems, 0.0);
    ASSERT_LT(fast.lb_elems, 1.0);
  }
}

TEST(Fuzz, MgpInvariantsOnRandomGraphs) {
  rng seeds(777);
  for (int trial = 0; trial < 12; ++trial) {
    rng r(seeds());
    const auto n = static_cast<graph::vid>(12 + r.below(150));
    const auto g = graph::random_connected_graph(
        n, static_cast<graph::eid>(r.below(400)), 9, r);
    const int k =
        2 + static_cast<int>(r.below(static_cast<std::uint64_t>(n - 1)));
    for (const auto algo :
         {mgp::method::recursive_bisection, mgp::method::kway}) {
      mgp::options opt;
      opt.algo = algo;
      opt.seed = seeds();
      const auto p = mgp::partition_graph(g, k, opt);
      partition::validate(p, g);
      ASSERT_TRUE(partition::all_parts_nonempty(p))
          << mgp::method_name(algo) << " n=" << n << " k=" << k;
      // The cut can never exceed the total edge weight.
      const auto m = partition::compute_metrics(g, p);
      graph::weight total_w = 0;
      for (graph::vid v = 0; v < n; ++v)
        for (const auto w : g.neighbor_weights(v)) total_w += w;
      ASSERT_LE(m.edgecut_weight, total_w / 2);
    }
  }
}

TEST(Fuzz, SfcPipelineOnRandomConfigurations) {
  rng seeds(31337);
  const int sides[] = {2, 3, 4, 6, 8, 9, 12};
  for (int trial = 0; trial < 12; ++trial) {
    rng r(seeds());
    const int ne = sides[r.below(7)];
    const mesh::cubed_sphere mesh(ne);
    const int k = mesh.num_elements();
    const auto curve = core::build_cube_curve(mesh);
    std::string error;
    ASSERT_TRUE(core::verify_cube_curve(mesh, curve.order, &error)) << error;

    // Random valid nproc (not necessarily a divisor).
    const int nproc =
        1 + static_cast<int>(r.below(static_cast<std::uint64_t>(k)));
    // Random positive weights.
    std::vector<graph::weight> w(static_cast<std::size_t>(k));
    for (auto& x : w) x = 1 + static_cast<graph::weight>(r.below(6));
    const auto p = core::sfc_partition(curve, nproc, w);
    partition::validate(p, mesh.dual_graph());
    ASSERT_TRUE(partition::all_parts_nonempty(p))
        << "ne=" << ne << " nproc=" << nproc;
    // Labels monotone along the curve (contiguous segments).
    graph::vid prev = 0;
    for (const int e : curve.order) {
      const auto label = p.part_of[static_cast<std::size_t>(e)];
      ASSERT_GE(label, prev);
      prev = label;
    }
  }
}

TEST(Fuzz, SimulatedTimeInvariants) {
  rng seeds(55);
  const mesh::cubed_sphere mesh(8);
  const auto dual = mesh.dual_graph();
  const perf::machine_model machine;
  const perf::seam_workload workload;
  const auto serial = perf::serial_step(mesh.num_elements(), machine, workload);
  for (int trial = 0; trial < 10; ++trial) {
    rng r(seeds());
    const int k = 2 + static_cast<int>(r.below(383));
    partition::partition p;
    p.num_parts = k;
    p.part_of.resize(384);
    // Random partition, then force every part non-empty by seeding one
    // element per part.
    for (auto& label : p.part_of)
      label = static_cast<graph::vid>(r.below(static_cast<std::uint64_t>(k)));
    for (int part = 0; part < k; ++part)
      p.part_of[static_cast<std::size_t>(part)] = part;
    const auto t = perf::simulate_step(dual, p, machine, workload);
    // A parallel step can never beat perfect division of the serial work,
    // and can never be slower than doing everything on the critical rank's
    // own (compute+comm includes at least one element).
    ASSERT_GE(t.total_s * k, serial.total_s * 0.999);
    ASSERT_GT(t.compute_s, 0.0);
    ASSERT_GE(t.comm_s, 0.0);
    ASSERT_LE(t.avg_rank_s, t.total_s + 1e-15);
    ASSERT_NEAR(t.total_s, t.compute_s + t.comm_s, 1e-12);
  }
}

TEST(Fuzz, ContractThenCutIsConsistent) {
  // Coarsening invariant used by the multilevel partitioner: a partition of
  // the coarse graph, projected to the fine graph, has the same cut weight.
  rng seeds(99);
  for (int trial = 0; trial < 10; ++trial) {
    rng r(seeds());
    const auto n = static_cast<graph::vid>(16 + r.below(80));
    const auto g = graph::random_connected_graph(
        n, static_cast<graph::eid>(r.below(200)), 5, r);
    // Random contraction map onto n/2 coarse vertices (ensure surjective).
    const graph::vid nc = n / 2;
    std::vector<graph::vid> coarse_of(static_cast<std::size_t>(n));
    for (graph::vid v = 0; v < nc; ++v)
      coarse_of[static_cast<std::size_t>(v)] = v;  // surjectivity
    for (graph::vid v = nc; v < n; ++v)
      coarse_of[static_cast<std::size_t>(v)] =
          static_cast<graph::vid>(r.below(static_cast<std::uint64_t>(nc)));
    const auto cg = graph::contract(g, coarse_of, nc);
    cg.validate();
    ASSERT_EQ(cg.total_vertex_weight(), g.total_vertex_weight());

    std::vector<graph::vid> coarse_labels(static_cast<std::size_t>(nc));
    for (auto& label : coarse_labels)
      label = static_cast<graph::vid>(r.below(3));
    std::vector<graph::vid> fine_labels(static_cast<std::size_t>(n));
    for (graph::vid v = 0; v < n; ++v)
      fine_labels[static_cast<std::size_t>(v)] =
          coarse_labels[static_cast<std::size_t>(
              coarse_of[static_cast<std::size_t>(v)])];
    ASSERT_EQ(graph::cut_weight(cg, coarse_labels),
              graph::cut_weight(g, fine_labels))
        << "trial " << trial;
  }
}

TEST(Fuzz, RandomSchedulesAlwaysVerify) {
  rng seeds(4242);
  for (int trial = 0; trial < 15; ++trial) {
    rng r(seeds());
    // Random factor list with product <= 64.
    std::vector<int> factors;
    int side = 1;
    while (true) {
      const int f = 2 + static_cast<int>(r.below(4));  // 2..5
      if (side * f > 64) break;
      side *= f;
      factors.push_back(f);
    }
    if (factors.empty()) factors.push_back(2), side = 2;
    const auto curve = sfc::generate_factors(factors);
    const auto res = sfc::validate_curve(curve, side);
    ASSERT_TRUE(res.ok) << "trial " << trial << ": " << res.detail;
  }
}

}  // namespace
