// Tests for the halo-exchange plan and the distributed shallow-water runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/partitioner.hpp"
#include "partition/partition.hpp"
#include "seam/assembly.hpp"
#include "seam/distributed.hpp"
#include "seam/exchange.hpp"
#include "seam/layered.hpp"
#include "seam/shallow_water.hpp"
#include "util/require.hpp"

namespace {

using namespace sfp;
using namespace sfp::seam;

TEST(ExchangePlan, CoversEveryElementExactlyOnce) {
  const mesh::cubed_sphere m(3);
  const assembly dofs(m, 4);
  const auto part = core::sfc_partition(m, 9);
  const auto plan = exchange_plan::build(dofs, part);
  ASSERT_EQ(plan.ranks.size(), 9u);
  std::set<int> seen;
  for (const auto& rp : plan.ranks) {
    for (const int e : rp.owned) EXPECT_TRUE(seen.insert(e).second);
    EXPECT_TRUE(std::is_sorted(rp.owned.begin(), rp.owned.end()));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(m.num_elements()));
}

TEST(ExchangePlan, PeerListsAreSymmetric) {
  const mesh::cubed_sphere m(4);
  const assembly dofs(m, 3);
  const auto part = core::sfc_partition(m, 12);
  const auto plan = exchange_plan::build(dofs, part);
  for (std::size_t p = 0; p < plan.ranks.size(); ++p) {
    for (const auto& peer : plan.ranks[p].peers) {
      // The peer must list us with the same number of shared dofs.
      const auto& back_peers =
          plan.ranks[static_cast<std::size_t>(peer.rank)].peers;
      const auto it = std::find_if(
          back_peers.begin(), back_peers.end(),
          [&](const auto& bp) { return bp.rank == static_cast<int>(p); });
      ASSERT_NE(it, back_peers.end());
      EXPECT_EQ(it->dof_local.size(), peer.dof_local.size());
      // And the *global* dofs behind the local indices must match in order.
      for (std::size_t k = 0; k < peer.dof_local.size(); ++k) {
        const std::int64_t mine =
            plan.ranks[p].touched_dofs[static_cast<std::size_t>(
                peer.dof_local[k])];
        const std::int64_t theirs =
            plan.ranks[static_cast<std::size_t>(peer.rank)]
                .touched_dofs[static_cast<std::size_t>(it->dof_local[k])];
        ASSERT_EQ(mine, theirs);
      }
    }
  }
}

TEST(ExchangePlan, SharedDofsTouchedByBothSides) {
  const mesh::cubed_sphere m(2);
  const assembly dofs(m, 4);
  const auto part = core::sfc_partition(m, 6);
  const auto plan = exchange_plan::build(dofs, part);
  EXPECT_GT(plan.total_exchange_volume(), 0);
  EXPECT_GE(plan.max_peers(), 1);
  EXPECT_LE(plan.max_peers(), 5);
}

TEST(ExchangePlan, SingleRankHasNoPeers) {
  const mesh::cubed_sphere m(2);
  const assembly dofs(m, 3);
  partition::partition all_one(1, std::vector<graph::vid>(
                                      static_cast<std::size_t>(m.num_elements()), 0));
  const auto plan = exchange_plan::build(dofs, all_one);
  EXPECT_TRUE(plan.ranks[0].peers.empty());
  EXPECT_EQ(plan.total_exchange_volume(), 0);
}

TEST(ExchangePlan, RejectsEmptyRank) {
  const mesh::cubed_sphere m(2);
  const assembly dofs(m, 3);
  partition::partition bad(3, std::vector<graph::vid>(
                                  static_cast<std::size_t>(m.num_elements()), 0));
  bad.part_of[0] = 1;  // part 2 stays empty
  EXPECT_THROW(exchange_plan::build(dofs, bad), contract_error);
}

// ---- distributed shallow water ----------------------------------------------

class DistributedSwe : public ::testing::TestWithParam<int> {};

TEST_P(DistributedSwe, MatchesSerialExecution) {
  const int nranks = GetParam();
  const mesh::cubed_sphere m(2);
  shallow_water_model model(m, 4);
  model.set_williamson2(0.1, 10.0);
  // Perturb so the run is genuinely unsteady.
  model.set_state(
      [&](mesh::vec3 p) {
        return 10.0 - 0.105 * p.z * p.z + 0.01 * std::exp(-4.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
      },
      [](mesh::vec3 p) { return mesh::vec3{-0.1 * p.y, 0.1 * p.x, 0}; });
  const double dt = model.cfl_dt(0.25);
  const int nsteps = 6;

  const auto part = core::sfc_partition(m, nranks);
  dist_stats stats;
  const swe_state dist = run_distributed_swe(model, part, dt, nsteps, &stats);

  shallow_water_model serial = std::move(model);
  for (int s = 0; s < nsteps; ++s) serial.step(dt);

  double max_diff = 0;
  for (std::size_t i = 0; i < dist.h.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(dist.h[i] - serial.depth()[i]));
    max_diff = std::max(max_diff, std::abs(dist.ux[i] - serial.velocity_x()[i]));
    max_diff = std::max(max_diff, std::abs(dist.uy[i] - serial.velocity_y()[i]));
    max_diff = std::max(max_diff, std::abs(dist.uz[i] - serial.velocity_z()[i]));
  }
  EXPECT_LT(max_diff, 1e-11) << "ranks=" << nranks;
  if (nranks > 1) {
    EXPECT_GT(stats.messages, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistributedSwe, ::testing::Values(1, 2, 4, 8),
                         ::testing::PrintToStringParamName());

TEST(DistributedSwe, KwayPartitionAlsoWorks) {
  const mesh::cubed_sphere m(2);
  shallow_water_model model(m, 3);
  model.set_williamson2(0.1, 10.0);
  const double dt = model.cfl_dt(0.25);
  mgp::options opt;
  opt.algo = mgp::method::kway;
  const auto part = mgp::partition_graph(m.dual_graph(), 5, opt);
  const swe_state dist = run_distributed_swe(model, part, dt, 4);

  shallow_water_model serial = std::move(model);
  for (int s = 0; s < 4; ++s) serial.step(dt);
  double max_diff = 0;
  for (std::size_t i = 0; i < dist.h.size(); ++i)
    max_diff = std::max(max_diff, std::abs(dist.h[i] - serial.depth()[i]));
  EXPECT_LT(max_diff, 1e-11);
}

TEST(Distributed, MeasuredVolumeMatchesPlanExactly) {
  // The wire traffic of a real distributed run is fully determined by the
  // exchange plan: one DSS per field per RK stage — 3 per step for
  // advection, 4 fields × 3 stages for shallow water, nlev × 3 for the
  // layered model — each DSS moving exactly total_exchange_volume()
  // doubles. Every plain runner also reports one counter set per rank.
  const mesh::cubed_sphere m(2);
  const int nranks = 5, nsteps = 3;
  const auto part = core::sfc_partition(m, nranks);

  {
    advection_model model(m, 4);
    model.set_field([](mesh::vec3 p) { return p.x; });
    const auto plan = exchange_plan::build(model.dofs(), part);
    dist_stats stats;
    run_distributed(model, part, model.cfl_dt(0.3), nsteps, &stats);
    EXPECT_EQ(stats.doubles_sent, 3 * nsteps * plan.total_exchange_volume());
    EXPECT_EQ(stats.per_rank.size(), static_cast<std::size_t>(nranks));
  }
  {
    shallow_water_model model(m, 4);
    model.set_williamson2(0.1, 10.0);
    const auto plan = exchange_plan::build(model.dofs(), part);
    dist_stats stats;
    run_distributed_swe(model, part, model.cfl_dt(0.25), nsteps, &stats);
    EXPECT_EQ(stats.doubles_sent,
              4 * 3 * nsteps * plan.total_exchange_volume());
    EXPECT_EQ(stats.per_rank.size(), static_cast<std::size_t>(nranks));
  }
  {
    const int nlev = 3;
    layered_advection model(m, 4, nlev);
    model.set_field([](mesh::vec3 p, int l) { return p.x + 0.1 * l; });
    const auto plan = exchange_plan::build(model.base().dofs(), part);
    dist_stats stats;
    run_distributed_layered(model, part, model.cfl_dt(), nsteps, &stats);
    EXPECT_EQ(stats.doubles_sent,
              nlev * 3 * nsteps * plan.total_exchange_volume());
    EXPECT_EQ(stats.per_rank.size(), static_cast<std::size_t>(nranks));
  }
}

TEST(Distributed, DssBitwiseIdenticalUnderInjectedDelays) {
  // Message delays and duplicates reorder *delivery*, but each rank adds
  // its peers' partials in ascending peer order, so the accumulation order —
  // and therefore every bit of the result — must not change.
  const mesh::cubed_sphere m(2);
  advection_model model(m, 4);
  model.set_field([](mesh::vec3 p) { return p.x * p.y + 0.5 * p.z; });
  const auto part = core::sfc_partition(m, 6);
  const double dt = model.cfl_dt(0.3);
  const int nsteps = 4;

  const std::vector<double> clean = run_distributed(model, part, dt, nsteps);

  runtime::fault_plan chaos;
  chaos.seed = 42;
  auto& mf = chaos.message_faults.emplace_back();
  mf.delay_probability = 0.4;
  mf.delay = std::chrono::microseconds(300);
  mf.duplicate_probability = 0.3;
  dist_stats stats;
  const std::vector<double> delayed =
      run_distributed(model, part, dt, nsteps, &stats, chaos);

  ASSERT_EQ(clean.size(), delayed.size());
  for (std::size_t i = 0; i < clean.size(); ++i)
    ASSERT_EQ(clean[i], delayed[i]) << "node " << i;  // bitwise, not approx

  // And the chaos schedule itself is reproducible: a second run under the
  // same seed produces the same bits again.
  const std::vector<double> again =
      run_distributed(model, part, dt, nsteps, nullptr, chaos);
  EXPECT_EQ(delayed, again);
}

// Owned slots and element ids disagree on every rank: with part_of[e] =
// e % P every rank owns elements on every face, and slot l of a rank-local
// field holds element r + l·P. Every runner gathers its initial slices,
// calls the element kernels per slot, scatters its final slices and — in
// the resilient runner — scatters checkpoints and re-gathers after a
// restart; each must reproduce the serial run.
double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

TEST(Distributed, ScatteredLabelsMatchSerial) {
  const mesh::cubed_sphere m(3);
  const int nranks = 4, nsteps = 5;
  partition::partition scattered;
  scattered.num_parts = nranks;
  for (int e = 0; e < m.num_elements(); ++e)
    scattered.part_of.push_back(e % nranks);
  const auto blob = [](mesh::vec3 p) {
    return std::exp(-4.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z)) +
           0.3 * p.z;
  };

  {
    advection_model model(m, 4);
    model.set_field(blob);
    const double dt = model.cfl_dt(0.3);
    const auto dist = run_distributed(model, scattered, dt, nsteps);
    for (int s = 0; s < nsteps; ++s) model.step(dt);
    EXPECT_LT(max_abs_diff(dist, model.field()), 1e-12) << "advection";
  }
  {
    shallow_water_model model(m, 4);
    model.set_state(
        [&](mesh::vec3 p) { return 10.0 - 0.105 * p.z * p.z + 0.01 * blob(p); },
        [](mesh::vec3 p) { return mesh::vec3{-0.1 * p.y, 0.1 * p.x, 0}; });
    const double dt = model.cfl_dt(0.25);
    const swe_state dist = run_distributed_swe(model, scattered, dt, nsteps);
    for (int s = 0; s < nsteps; ++s) model.step(dt);
    EXPECT_LT(max_abs_diff(dist.h, model.depth()), 1e-12) << "swe h";
    EXPECT_LT(max_abs_diff(dist.ux, model.velocity_x()), 1e-12) << "swe ux";
    EXPECT_LT(max_abs_diff(dist.uy, model.velocity_y()), 1e-12) << "swe uy";
    EXPECT_LT(max_abs_diff(dist.uz, model.velocity_z()), 1e-12) << "swe uz";
  }
  {
    const int nlev = 3;
    layered_advection model(m, 4, nlev, 1.0, 0.6);
    model.set_field(
        [&](mesh::vec3 p, int l) { return blob(p) * (1 + l) - 0.1 * l * p.x; });
    const double dt = model.cfl_dt(0.3);
    const auto dist = run_distributed_layered(model, scattered, dt, nsteps);
    for (int s = 0; s < nsteps; ++s) model.step(dt);
    ASSERT_EQ(dist.size(), static_cast<std::size_t>(nlev));
    for (int l = 0; l < nlev; ++l)
      EXPECT_LT(max_abs_diff(dist[static_cast<std::size_t>(l)], model.layer(l)),
                1e-12)
          << "layer " << l;
  }
  {
    // Recovery re-slices curve segments (core::plan_recovery, whose audit
    // checks segment contiguity), so the resilient run starts from the SFC
    // plan. Its slots disagree with element ids too: every segment of this
    // curve crosses cube faces.
    advection_model model(m, 4);
    model.set_field(blob);
    const double dt = model.cfl_dt(0.3);
    const auto curve = core::build_cube_curve(m);
    const auto sfc = core::sfc_partition(curve, nranks);
    runtime::resilience_options ropts;
    ropts.faults.kills.push_back({/*rank=*/1, /*at_op=*/30});
    ropts.max_recoveries = 1;
    recovery_report report;
    const auto dist = run_distributed_resilient(model, curve, sfc, dt, nsteps,
                                                ropts, &report);
    EXPECT_EQ(report.recoveries, 1);
    EXPECT_EQ(report.lost_ranks, std::vector<int>{1});
    for (int s = 0; s < nsteps; ++s) model.step(dt);
    EXPECT_LT(max_abs_diff(dist, model.field()), 1e-12) << "resilient";
  }
}

TEST(DistributedSwe, Preconditions) {
  const mesh::cubed_sphere m(2);
  shallow_water_model model(m, 3);
  model.set_williamson2(0.1, 10.0);
  const auto part = core::sfc_partition(m, 4);
  EXPECT_THROW(run_distributed_swe(model, part, -1.0, 2), contract_error);
  EXPECT_THROW(run_distributed_swe(model, part, 0.01, -2), contract_error);
}

}  // namespace
