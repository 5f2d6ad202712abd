// Tests for the halo-exchange plan and the distributed shallow-water runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
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
#include "topology_oracle.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

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
            plan.ranks[p].global_dof[static_cast<std::size_t>(
                peer.dof_local[k])];
        const std::int64_t theirs =
            plan.ranks[static_cast<std::size_t>(peer.rank)]
                .global_dof[static_cast<std::size_t>(it->dof_local[k])];
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

// ---- the boundary-only DSS ---------------------------------------------------

TEST(HaloExchanger, InteriorNodesUntouchedBoundaryNodesMatchAFullNodeDss) {
  // The exchanger reads and writes boundary nodes only. Interior nodes (one
  // copy each) come back bit for bit as they went in, −0.0 included — a
  // full-node DSS turned it into 0.0 + (−0.0) = +0.0. Boundary nodes equal
  // the full-node DSS the exchanger replaced, computed here from the legacy
  // plan: every node of the rank summed from 0.0 in ascending rank-local
  // order, then the peers' partials in ascending peer order, times
  // 1 / multiplicity.
  const mesh::cubed_sphere m(3);
  const int np = 5, nranks = 4;
  const assembly dofs(m, np);
  partition::partition strided(
      nranks, std::vector<graph::vid>(static_cast<std::size_t>(m.num_elements())));
  for (std::size_t e = 0; e < strided.part_of.size(); ++e)
    strided.part_of[e] = static_cast<graph::vid>((e * 7919) % nranks);
  for (const partition::partition& part :
       {core::sfc_partition(m, nranks), strided}) {
    const std::vector<oracle::legacy_rank_plan> legacy =
        oracle::legacy_exchange_plan(dofs, part);
    // Seeded rank-local fields; interior node (1, 1) of every slot and a
    // few boundary nodes hold −0.0.
    rng gen(7);
    std::vector<std::vector<double>> in(nranks);
    for (std::size_t r = 0; r < in.size(); ++r) {
      in[r].resize(legacy[r].node_dof_local.size());
      for (std::size_t k = 0; k < in[r].size(); ++k)
        in[r][k] = k % static_cast<std::size_t>(np * np) ==
                               static_cast<std::size_t>(np + 1) ||
                           k % 97 == 0
                       ? -0.0
                       : gen.uniform(-1.0, 1.0);
    }

    // The full-node reference: each rank's partial per touched dof, then
    // the remote partials of the same global dof in ascending peer order.
    std::vector<std::vector<double>> partial(nranks);
    for (std::size_t r = 0; r < partial.size(); ++r) {
      partial[r].assign(legacy[r].touched_dofs.size(), 0.0);
      for (std::size_t k = 0; k < in[r].size(); ++k)
        partial[r][static_cast<std::size_t>(legacy[r].node_dof_local[k])] +=
            in[r][k];
    }
    std::vector<std::vector<double>> want(nranks);
    for (std::size_t r = 0; r < want.size(); ++r) {
      std::vector<double> acc = partial[r];
      for (const auto& peer : legacy[r].peers) {
        const oracle::legacy_rank_plan& q =
            legacy[static_cast<std::size_t>(peer.rank)];
        for (const std::int32_t d : peer.dof_local) {
          const std::int64_t g = legacy[r].touched_dofs[static_cast<std::size_t>(d)];
          const auto at = std::ranges::lower_bound(q.touched_dofs, g) -
                          q.touched_dofs.begin();
          acc[static_cast<std::size_t>(d)] +=
              partial[static_cast<std::size_t>(peer.rank)]
                     [static_cast<std::size_t>(at)];
        }
      }
      for (const std::int32_t d : legacy[r].node_dof_local) {
        const auto du = static_cast<std::size_t>(d);
        want[r].push_back(acc[du] * legacy[r].inv_multiplicity[du]);
      }
    }

    std::vector<std::vector<double>> out = in;
    runtime::resilience_options opts;
    opts.max_recoveries = 0;
    runtime::resilience_report report;
    const std::exception_ptr error = runtime::run_resilient(
        nranks, opts,
        [&](runtime::reliable_channel& channel, int) {
          const int rank = channel.rank();
          const rank_exchange_plan rp =
              rank_exchange_plan::build(dofs, part, rank);
          halo_exchanger halo(rp, rank, channel);
          std::vector<double>& mine = out[static_cast<std::size_t>(rank)];
          for (std::size_t l = 0; l < rp.owned.size(); ++l)
            halo.accumulate(0, l,
                            std::span<const double>(mine).subspan(
                                l * rp.slot_size(), rp.slot_size()));
          halo.exchange(0, mine);
        },
        {}, report);
    ASSERT_FALSE(error);

    int negative_zeros = 0;
    for (std::size_t r = 0; r < out.size(); ++r)
      for (std::size_t k = 0; k < out[r].size(); ++k) {
        const auto d = static_cast<std::size_t>(legacy[r].node_dof_local[k]);
        const bool interior = legacy[r].inv_multiplicity[d] == 1.0;
        const double expected = interior ? in[r][k] : want[r][k];
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[r][k]),
                  std::bit_cast<std::uint64_t>(expected))
            << "rank " << r << " node " << k
            << (interior ? " (interior)" : " (boundary)");
        negative_zeros += interior && std::signbit(out[r][k]) ? 1 : 0;
      }
    EXPECT_GT(negative_zeros, 0);
  }
}

TEST(HaloExchanger, EachFieldSumsFromZeroAtEveryExchange) {
  // One exchanger carries several fields, each with its own partial sums,
  // and an exchange leaves its field's sums at 0.0 for the next stage. Two
  // rounds on one exchanger with the inputs swapped between its two
  // fields, slots accumulated field by field as an element pass does, must
  // give each input's first-round result bit for bit.
  const mesh::cubed_sphere m(2);
  const int np = 4, nranks = 3;
  const assembly dofs(m, np);
  const partition::partition part = core::sfc_partition(m, nranks);
  using fields = std::vector<std::vector<double>>;
  std::vector<fields> first(nranks), second(nranks);
  runtime::resilience_options opts;
  opts.max_recoveries = 0;
  runtime::resilience_report report;
  const std::exception_ptr error = runtime::run_resilient(
      nranks, opts,
      [&](runtime::reliable_channel& channel, int) {
        const int rank = channel.rank();
        const rank_exchange_plan rp =
            rank_exchange_plan::build(dofs, part, rank);
        halo_exchanger halo(rp, rank, channel, 2);
        rng gen(100 + static_cast<std::uint64_t>(rank));
        fields in(2, std::vector<double>(rp.local_size()));
        for (std::vector<double>& f : in)
          for (double& x : f) x = gen.uniform(-1.0, 1.0);
        const auto round = [&](const fields& values) {
          fields out = values;
          for (std::size_t l = 0; l < rp.owned.size(); ++l)
            for (std::size_t f = 0; f < 2; ++f)
              halo.accumulate(f, l,
                              std::span<const double>(out[f]).subspan(
                                  l * rp.slot_size(), rp.slot_size()));
          for (std::size_t f = 0; f < 2; ++f) halo.exchange(f, out[f]);
          return out;
        };
        first[static_cast<std::size_t>(rank)] = round(in);
        second[static_cast<std::size_t>(rank)] = round({in[1], in[0]});
      },
      {}, report);
  ASSERT_FALSE(error);
  for (std::size_t r = 0; r < first.size(); ++r) {
    EXPECT_NE(first[r][0], first[r][1]);
    for (std::size_t f = 0; f < 2; ++f)
      for (std::size_t k = 0; k < first[r][f].size(); ++k)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(second[r][1 - f][k]),
                  std::bit_cast<std::uint64_t>(first[r][f][k]))
            << "rank " << r << " field " << f << " node " << k;
  }
}

TEST(Distributed, RejectsABadPartitionOnTheCallingThread) {
  // Each rank plans its own halo, so the runner checks the partition it is
  // handed once, before any rank starts: the error names the partition,
  // not a rank body's plan.
  const mesh::cubed_sphere m(2);
  advection_model model(m, 3);
  const double dt = model.cfl_dt(0.3);
  const auto message_of = [&](const partition::partition& part) {
    try {
      (void)run_distributed(model, part, dt, 1);
    } catch (const contract_error& e) {
      return e.message();
    }
    return std::string("no error");
  };
  partition::partition empty_part(
      3, std::vector<graph::vid>(static_cast<std::size_t>(m.num_elements()), 0));
  empty_part.part_of[0] = 1;  // part 2 stays empty
  EXPECT_EQ(message_of(empty_part),
            "partition has an empty part: every rank must own an element");
  partition::partition out_of_range = core::sfc_partition(m, 3);
  out_of_range.part_of[5] = 3;
  EXPECT_EQ(message_of(out_of_range),
            "partition has a part label out of range");
  partition::partition short_labels = core::sfc_partition(m, 3);
  short_labels.part_of.pop_back();
  EXPECT_EQ(message_of(short_labels),
            "partition must label every mesh element");
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
  // doubles. Every runner, the resilient one included, also reports one
  // counter set per rank.
  const mesh::cubed_sphere m(2);
  const int nranks = 5, nsteps = 3;
  const auto part = core::sfc_partition(m, nranks);

  {
    advection_model model(m, 4);
    model.set_field([](mesh::vec3 p) { return p.x; });
    const auto plan = exchange_plan::build(model.dofs(), part);
    const double dt = model.cfl_dt(0.3);
    dist_stats plain, resilient;
    run_distributed(model, part, dt, nsteps, &plain);
    run_distributed_resilient(model, core::build_cube_curve(m), part, dt,
                              nsteps, {}, nullptr, &resilient);
    for (const dist_stats* stats : {&plain, &resilient}) {
      EXPECT_EQ(stats->doubles_sent,
                3 * nsteps * plan.total_exchange_volume());
      EXPECT_EQ(stats->per_rank.size(), static_cast<std::size_t>(nranks));
    }
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
  // and therefore every bit of the result — must not change. The faulted
  // runs have no recovery budget: the faults must heal in place.
  const mesh::cubed_sphere m(2);
  advection_model model(m, 4);
  model.set_field([](mesh::vec3 p) { return p.x * p.y + 0.5 * p.z; });
  const auto curve = core::build_cube_curve(m);
  const auto part = core::sfc_partition(m, 6);
  const double dt = model.cfl_dt(0.3);
  const int nsteps = 4;

  const std::vector<double> clean = run_distributed(model, part, dt, nsteps);

  runtime::resilience_options chaos;
  chaos.max_recoveries = 0;
  chaos.faults.seed = 42;
  auto& mf = chaos.faults.message_faults.emplace_back();
  mf.delay_probability = 0.4;
  mf.delay = std::chrono::microseconds(300);
  mf.duplicate_probability = 0.3;
  dist_stats stats;
  const std::vector<double> delayed = run_distributed_resilient(
      model, curve, part, dt, nsteps, chaos, nullptr, &stats);

  ASSERT_EQ(clean.size(), delayed.size());
  for (std::size_t i = 0; i < clean.size(); ++i)
    ASSERT_EQ(clean[i], delayed[i]) << "node " << i;  // bitwise, not approx

  // And the chaos schedule itself is reproducible: a second run under the
  // same seed produces the same bits again.
  const std::vector<double> again =
      run_distributed_resilient(model, curve, part, dt, nsteps, chaos);
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
    ropts.faults.kills.push_back({/*rank=*/1, /*at_op=*/15});
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
