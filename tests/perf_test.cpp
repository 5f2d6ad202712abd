// Tests for the machine/execution-time model: calibration against the
// paper's published numbers and the monotonic behaviours the figures rely on.

#include <gtest/gtest.h>

#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/metrics.hpp"
#include "perf/machine.hpp"
#include "perf/simulate.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::perf;

TEST(Machine, CalibrationMatchesPaper) {
  const machine_model m;
  // Paper §4: 841 Mflop/s is 16% of POWER4 peak.
  EXPECT_NEAR(m.sustained_fraction(), 0.16, 0.005);
}

TEST(Workload, InterfaceBytesMatchTable2Scale) {
  // Table 2: TCV of 16.8–17.7 MB for K=1536 on 768 processors. With ~7
  // interfaces per boundary element and all 1536 elements on part
  // boundaries, per-interface bytes must be ~1.6 KB.
  const seam_workload w;
  EXPECT_GT(w.bytes_per_interface(), 1200.0);
  EXPECT_LT(w.bytes_per_interface(), 2200.0);
}

TEST(Workload, FlopsScaleWithConfiguration) {
  seam_workload small;
  seam_workload big = small;
  big.np = 16;
  EXPECT_GT(big.flops_per_element(), 4.0 * small.flops_per_element());
  big = small;
  big.nlev *= 2;
  EXPECT_DOUBLE_EQ(big.flops_per_element(), 2.0 * small.flops_per_element());
}

TEST(Simulate, SerialMatchesHandComputation) {
  const machine_model m;
  const seam_workload w;
  const step_time t = serial_step(384, m, w);
  EXPECT_DOUBLE_EQ(t.total_s, 384.0 * w.flops_per_element() / 841.0e6);
  EXPECT_DOUBLE_EQ(t.comm_s, 0.0);
  // Sustained rate on one processor is by construction 841 Mflop/s.
  EXPECT_NEAR(sustained_gflops(384, w, t), 0.841, 1e-9);
}

TEST(Simulate, PerfectPartitionScalesUntilCommBites) {
  const mesh::cubed_sphere mesh(8);
  const auto dual = mesh.dual_graph(8, 1);
  const machine_model m;
  const seam_workload w;
  const step_time t1 = serial_step(mesh.num_elements(), m, w);

  double prev_speedup = 0.0;
  for (const int nproc : {2, 4, 8, 16, 32, 96}) {
    const auto p = core::sfc_partition(mesh, nproc);
    const step_time tp = simulate_step(dual, p, m, w);
    const double s = speedup(t1, tp);
    EXPECT_GT(s, prev_speedup) << nproc;  // still strong scaling regime
    EXPECT_LT(s, nproc + 1e-9);           // never superlinear in this model
    prev_speedup = s;
  }
  // Efficiency at 96 procs (4 elements each) should remain decent but below
  // ideal because communication is now visible.
  EXPECT_GT(prev_speedup, 48.0);
  EXPECT_LT(prev_speedup, 96.0);
}

TEST(Simulate, ImbalanceCostsTime) {
  const mesh::cubed_sphere mesh(4);
  const auto dual = mesh.dual_graph(8, 1);
  const machine_model m;
  const seam_workload w;
  // Balanced: 2 elements everywhere; imbalanced: one part gets 4.
  const auto balanced = core::sfc_partition(mesh, 48);
  partition::partition skewed = balanced;
  // Move two extra elements onto part 0 (steal from parts 1 and 2).
  int moved = 0;
  for (auto& label : skewed.part_of) {
    if (moved < 2 && (label == 1 || label == 2)) {
      label = 0;
      ++moved;
    }
  }
  const auto tb = simulate_step(dual, balanced, m, w);
  const auto ts = simulate_step(dual, skewed, m, w);
  EXPECT_GT(ts.total_s, tb.total_s);
  // The critical rank computes more elements, roughly 3/2 of balanced
  // compute time at minimum (part 0 went from 2 to 3-4 elements).
  EXPECT_GT(ts.compute_s, 1.4 * tb.compute_s);
}

TEST(Simulate, MoreNeighborsMoreLatency) {
  // Two artificial partitions of a path graph with identical balance and
  // cut weight but different peer counts for part 0.
  graph::builder b(8);
  for (graph::vid v = 0; v + 1 < 8; ++v) b.add_edge(v, v + 1, 1);
  const auto g = b.build();
  const machine_model m;
  seam_workload w;
  // Blocks: {0,1},{2,3},{4,5},{6,7}: each middle part has 2 peers.
  partition::partition blocks(4, {0, 0, 1, 1, 2, 2, 3, 3});
  // Interleaved: {0,4},{1,5},{2,6},{3,7}: parts touch more peers.
  partition::partition interleaved(4, {0, 1, 0, 2, 1, 3, 2, 3});
  const auto tb = simulate_step(g, blocks, m, w);
  const auto ti = simulate_step(g, interleaved, m, w);
  EXPECT_GT(ti.comm_s, tb.comm_s);
  EXPECT_GT(ti.total_s, tb.total_s);
}

TEST(Simulate, AverageNeverExceedsMax) {
  const mesh::cubed_sphere mesh(4);
  const auto dual = mesh.dual_graph(8, 1);
  const auto p = core::sfc_partition(mesh, 16);
  const auto t = simulate_step(dual, p, machine_model{}, seam_workload{});
  EXPECT_LE(t.avg_rank_s, t.total_s + 1e-15);
  EXPECT_GE(t.critical_rank, 0);
  EXPECT_LT(t.critical_rank, 16);
  EXPECT_NEAR(t.total_s, t.compute_s + t.comm_s, 1e-15);
}

TEST(Simulate, Preconditions) {
  const mesh::cubed_sphere mesh(2);
  const auto dual = mesh.dual_graph();
  machine_model bad;
  bad.sustained_flops = 0;
  const auto p = core::sfc_partition(mesh, 4);
  EXPECT_THROW(simulate_step(dual, p, bad, seam_workload{}), contract_error);
  EXPECT_THROW(serial_step(0, machine_model{}, seam_workload{}),
               contract_error);
  EXPECT_THROW(speedup(step_time{}, step_time{}), contract_error);
}

}  // namespace
