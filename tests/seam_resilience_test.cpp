// End-to-end fault-tolerance of the distributed SEAM advection mini-app:
// a rank dies mid-simulation, the survivors re-slice the cube curve,
// restart from the last sealed checkpoint, and must reproduce the
// fault-free tracer solution. The runner shares its attempt loop, and so
// its rule for faults across restarts, with the distributed partitioner.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "runtime/fault.hpp"
#include "runtime/partition_fabric.hpp"
#include "runtime/reliable.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"
#include "seam/exchange.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::seam;

advection_model make_model(const mesh::cubed_sphere& m) {
  advection_model model(m, 4);
  model.set_field([](mesh::vec3 p) {
    return std::exp(-6.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
  });
  return model;
}

TEST(Resilience, RecoversFromRankLossMidSimulation) {
  // The headline scenario: 4 ranks, rank 2 is killed mid-run, the three
  // survivors re-slice the same curve over 3 segments and finish. The
  // recovered tracer field must match the fault-free solution to 1e-12 and
  // only about 1/nparts of the elements may have migrated.
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const int nparts = 4;
  const auto part = core::sfc_partition(curve, nparts);
  const double dt = model.cfl_dt(0.3);
  const int nsteps = 8;

  const auto reference = run_distributed(model, part, dt, nsteps);

  runtime::resilience_options ropts;
  ropts.faults.kills.push_back({/*rank=*/2, /*at_op=*/40});
  ropts.max_recoveries = 1;
  recovery_report report;
  dist_stats stats;
  const auto recovered = run_distributed_resilient(
      model, curve, part, dt, nsteps, ropts, &report, &stats);

  // A failure actually happened and was survived.
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, std::vector<int>{2});
  EXPECT_GT(report.counters.injected_kills, 0);
  EXPECT_GT(report.counters.aborts_observed, 0);
  EXPECT_EQ(report.final_partition.num_parts, nparts - 1);
  EXPECT_GE(report.restart_step, 0);
  EXPECT_LT(report.restart_step, nsteps);

  // Recovery moved only the failed segment.
  EXPECT_EQ(report.migration.moved_elements,
            static_cast<std::int64_t>(m.num_elements()) / nparts);
  EXPECT_LE(report.migration.moved_fraction, 1.5 / nparts);
  // Per world rank: only rank 2's kill fired.
  ASSERT_EQ(report.per_rank_counters.size(), 4u);
  EXPECT_GT(report.per_rank_counters[2].injected_kills, 0);
  EXPECT_EQ(report.per_rank_counters[3].injected_kills, 0);

  // The physics is intact.
  ASSERT_EQ(recovered.size(), reference.size());
  double max_diff = 0;
  for (std::size_t i = 0; i < reference.size(); ++i)
    max_diff = std::max(max_diff, std::abs(recovered[i] - reference[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(Resilience, RecoveryIsDeterministicAcrossRuns) {
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const auto part = core::sfc_partition(curve, 4);
  const double dt = model.cfl_dt(0.3);

  // Rank 1 dies in the third halo exchange of step 0 (ops 13-18 of its
  // 22-op step), before any checkpoint is sealed. A retransmit only moves
  // the kill earlier, so every run restarts from step 0.
  runtime::resilience_options ropts;
  ropts.faults.kills.push_back({/*rank=*/1, /*at_op=*/15});
  ropts.max_recoveries = 1;
  recovery_report r1, r2;
  const auto a = run_distributed_resilient(model, curve, part, dt, 6, ropts, &r1);
  const auto b = run_distributed_resilient(model, curve, part, dt, 6, ropts, &r2);
  EXPECT_EQ(a, b);  // bitwise
  EXPECT_EQ(r1.lost_ranks, r2.lost_ranks);
  EXPECT_EQ(r1.restart_step, r2.restart_step);
  EXPECT_EQ(r1.migration.moved_elements, r2.migration.moved_elements);
  EXPECT_EQ(r1.counters.injected_kills, r2.counters.injected_kills);
}

TEST(Resilience, UnfiredKillStaysArmedAcrossTheRestart) {
  // Faults across attempts: rank 2 dies at its 40th op, in the second step
  // (a step is 22 ops on 4 ranks: three halo exchanges with 3 peers and the
  // checkpoint fence). Rank 0's kill at op 72 lies past the 44 ops rank 0
  // can send before that abort, so it stays armed and fires in the fifth
  // step of the restarted attempt (16 ops a step on 3 ranks). Both deaths
  // cost a restart, both ranks are lost, and the field survives.
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const auto part = core::sfc_partition(curve, 4);
  const double dt = model.cfl_dt(0.3);
  const int nsteps = 8;

  const auto reference = run_distributed(model, part, dt, nsteps);

  runtime::resilience_options ropts;
  ropts.faults.kills.push_back({/*rank=*/2, /*at_op=*/40});
  ropts.faults.kills.push_back({/*rank=*/0, /*at_op=*/72});
  ropts.max_recoveries = 2;
  // A retransmit timeout well above scheduler noise: a spurious retransmit
  // is an op, and rank 0 must not reach its kill in the first attempt.
  ropts.reliable.retransmit_timeout = std::chrono::microseconds(5000);
  ropts.reliable.max_backoff = std::chrono::microseconds(20000);
  ropts.reliable.recv_timeout = std::chrono::milliseconds(8000);
  recovery_report report;
  const auto recovered = run_distributed_resilient(model, curve, part, dt,
                                                   nsteps, ropts, &report);
  EXPECT_EQ(report.recoveries, 2);
  EXPECT_EQ(report.lost_ranks, (std::vector<int>{0, 2}));
  EXPECT_EQ(report.counters.injected_kills, 2);
  EXPECT_EQ(report.final_partition.num_parts, 2);
  EXPECT_GT(report.restart_step, 1);  // the second kill hit after step 1

  ASSERT_EQ(recovered.size(), reference.size());
  double max_diff = 0;
  for (std::size_t i = 0; i < reference.size(); ++i)
    max_diff = std::max(max_diff, std::abs(recovered[i] - reference[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(Resilience, FaultPlanLosesTheSameRanksInBothRunners) {
  // One attempt loop, one fault rule: the same plan on the same rank count
  // loses the same world ranks whether it drives the SEAM runner or the
  // distributed partitioner. Ranks 1 and 3 die (in one attempt or two,
  // as timing has it); rank 2's kill lies past its last op and never fires.
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const int nranks = 4;
  const auto part = core::sfc_partition(curve, nranks);
  const double dt = model.cfl_dt(0.3);

  runtime::resilience_options ropts;
  ropts.faults.kills.push_back({/*rank=*/1, /*at_op=*/1});
  ropts.faults.kills.push_back({/*rank=*/3, /*at_op=*/2});
  ropts.faults.kills.push_back({/*rank=*/2, /*at_op=*/1000000});
  const std::vector<int> want{1, 3};

  recovery_report seam_report;
  const auto recovered = run_distributed_resilient(model, curve, part, dt, 4,
                                                   ropts, &seam_report);
  const runtime::parallel_partition_report partition_report =
      runtime::run_parallel_partition(m, core::spec_of(curve), nranks, {},
                                      nranks, ropts);
  EXPECT_EQ(seam_report.lost_ranks, want);
  EXPECT_FALSE(partition_report.aborted);
  EXPECT_EQ(partition_report.lost_ranks, want);
  EXPECT_EQ(partition_report.plan.part_of, part.part_of);

  const auto reference = run_distributed(model, part, dt, 4);
  double max_diff = 0;
  for (std::size_t i = 0; i < reference.size(); ++i)
    max_diff = std::max(max_diff, std::abs(recovered[i] - reference[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(Resilience, SecondFailureExceedsBudgetAndRethrows) {
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const auto part = core::sfc_partition(curve, 4);
  const double dt = model.cfl_dt(0.3);

  runtime::resilience_options ropts;
  ropts.faults.kills.push_back({/*rank=*/0, /*at_op=*/10});
  ropts.max_recoveries = 0;  // no budget: the kill must surface
  EXPECT_THROW(
      run_distributed_resilient(model, curve, part, dt, 6, ropts),
      runtime::rank_killed);
}

TEST(Resilience, TimeoutOptionGuardsAgainstLostMessages) {
  // Lost messages (every send from rank 0 dropped, retransmits included):
  // the channel's retransmit budget or receive deadline gives up instead of
  // hanging, and without a recovery budget the failure surfaces.
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const auto part = core::sfc_partition(curve, 4);
  const double dt = model.cfl_dt(0.3);

  runtime::resilience_options ropts;
  auto& mf = ropts.faults.message_faults.emplace_back();
  mf.src = 0;
  mf.drop_probability = 1.0;
  ropts.max_recoveries = 0;
  EXPECT_THROW(
      run_distributed_resilient(model, curve, part, dt, 4, ropts),
      runtime::peer_unreachable_error);
}

// ---- reliable transport: the self-healing rung of the ladder ---------------

runtime::resilience_options reliable_ropts(std::uint64_t seed) {
  runtime::resilience_options ropts;
  ropts.max_recoveries = 1;
  ropts.faults.seed = seed;
  ropts.reliable.recv_timeout = std::chrono::milliseconds(8000);
  return ropts;
}

// ---- clean runs: the resilient runner's arithmetic ------------------------

TEST(ResilienceCleanRun, MatchesPlainDistributedBitwise) {
  // With no faults the resilient runner does the same arithmetic as
  // run_distributed: checkpoints, fences and the reliable channel change
  // no math.
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const auto part = core::sfc_partition(curve, 4);
  const double dt = model.cfl_dt(0.3);

  const runtime::resilience_options ropts = reliable_ropts(0);

  const auto plain = run_distributed(model, part, dt, 6);
  recovery_report report;
  const auto resilient = run_distributed_resilient(model, curve, part, dt, 6,
                                                   ropts, &report);
  EXPECT_EQ(plain, resilient);
  EXPECT_EQ(report.recoveries, 0);
  EXPECT_TRUE(report.lost_ranks.empty());
  EXPECT_EQ(report.final_partition.num_parts, 4);
}

TEST(ResilienceCleanRun, SettlesOnceAtTheEndOfTheAttempt) {
  // With no recovery budget there is no checkpoint to seal, so a fault-free
  // rank sends one halo frame per peer per RK stage and then the
  // ceil(log2 n) tokens of the fence that closes its body. data_sent
  // counts originals, not retransmits, so the count is exact.
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  constexpr int kRanks = 3;
  constexpr int kSteps = 4;
  const auto part = core::sfc_partition(curve, kRanks);

  runtime::resilience_options ropts = reliable_ropts(0);
  ropts.max_recoveries = 0;
  recovery_report report;
  (void)run_distributed_resilient(model, curve, part, model.cfl_dt(0.3),
                                  kSteps, ropts, &report);
  ASSERT_EQ(report.recoveries, 0);

  std::int64_t links = 0;
  for (const auto& rp : exchange_plan::build(model.dofs(), part).ranks)
    links += static_cast<std::int64_t>(rp.peers.size());
  std::int64_t fence_rounds = 0;
  for (int hop = 1; hop < kRanks; hop *= 2) ++fence_rounds;
  EXPECT_EQ(report.reliable.data_sent,
            3 * kSteps * links + kRanks * fence_rounds);
}

TEST(ReliableResilience, TransientChaosHealsInPlaceWithZeroRecoveries) {
  // The tentpole acceptance scenario: a seeded schedule of drop + corrupt +
  // duplicate + reorder faults (no kills) on every link. The reliable
  // transport must heal everything in place — one attempt, no aborts, no
  // re-slice — and reproduce the fault-free advection field to 1e-12.
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const auto part = core::sfc_partition(curve, 4);
  const double dt = model.cfl_dt(0.3);
  const int nsteps = 6;

  const auto reference = run_distributed(model, part, dt, nsteps);

  runtime::resilience_options ropts = reliable_ropts(2024);
  auto& mf = ropts.faults.message_faults.emplace_back();
  mf.drop_probability = 0.1;
  mf.corrupt_probability = 0.1;
  mf.duplicate_probability = 0.1;
  mf.reorder_probability = 0.05;
  mf.truncate_probability = 0.05;

  recovery_report report;
  const auto healed = run_distributed_resilient(model, curve, part, dt,
                                                nsteps, ropts, &report);

  EXPECT_EQ(report.recoveries, 0);  // zero re-slices
  EXPECT_TRUE(report.lost_ranks.empty());
  EXPECT_EQ(report.counters.aborts_observed, 0);
  EXPECT_EQ(report.final_partition.num_parts, 4);
  // The chaos actually hit the wire and the transport actually worked.
  EXPECT_GT(report.counters.injected_drops + report.counters.injected_corruptions +
                report.counters.injected_duplicates,
            0);
  EXPECT_GT(report.reliable.retransmits, 0);
  EXPECT_GT(report.reliable.corruption_detected, 0);
  EXPECT_GT(report.reliable.dedup_dropped, 0);

  ASSERT_EQ(healed.size(), reference.size());
  double max_diff = 0;
  for (std::size_t i = 0; i < reference.size(); ++i)
    max_diff = std::max(max_diff, std::abs(healed[i] - reference[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(ReliableResilience, KillStillEscalatesToPlanRecovery) {
  // Transient faults heal, but genuine rank death must still climb the
  // ladder: checkpoint rollback + curve re-slice, as for a bare kill.
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const int nparts = 4;
  const auto part = core::sfc_partition(curve, nparts);
  const double dt = model.cfl_dt(0.3);
  const int nsteps = 6;

  const auto reference = run_distributed(model, part, dt, nsteps);

  runtime::resilience_options ropts = reliable_ropts(7);
  ropts.reliable.recv_timeout = std::chrono::milliseconds(2000);
  ropts.faults.kills.push_back({/*rank=*/1, /*at_op=*/33});
  auto& mf = ropts.faults.message_faults.emplace_back();
  mf.drop_probability = 0.05;
  mf.corrupt_probability = 0.05;

  recovery_report report;
  const auto recovered = run_distributed_resilient(model, curve, part, dt,
                                                   nsteps, ropts, &report);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, std::vector<int>{1});
  EXPECT_EQ(report.final_partition.num_parts, nparts - 1);
  EXPECT_GT(report.counters.injected_kills, 0);

  double max_diff = 0;
  for (std::size_t i = 0; i < reference.size(); ++i)
    max_diff = std::max(max_diff, std::abs(recovered[i] - reference[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(ReliableResilience, SeveredLinkEscalatesViaPeerUnreachable) {
  // A permanently dead link (every retransmit dropped) cannot be healed:
  // the sender exhausts its budget, names the peer, and the escalation
  // policy recovers around the *peer* — not the healthy thrower.
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const auto part = core::sfc_partition(curve, 4);
  const double dt = model.cfl_dt(0.3);

  runtime::resilience_options ropts = reliable_ropts(3);
  // The budget must exhaust fast on the severed link but stay generous
  // enough that a *healthy* link never exhausts it just because its
  // receiver thread was starved for a few milliseconds — this test runs
  // alongside the rest of the suite on an oversubscribed CPU. ~50 ms of
  // total budget keeps the test quick and the healthy links safe.
  ropts.reliable.max_retransmits = 6;
  ropts.reliable.retransmit_timeout = std::chrono::microseconds(1000);
  ropts.reliable.max_backoff = std::chrono::microseconds(10000);
  ropts.reliable.recv_timeout = std::chrono::milliseconds(6000);
  auto& mf = ropts.faults.message_faults.emplace_back();
  mf.dst = 2;  // every data frame *to* rank 2 vanishes: rank 2 is the corpse
  mf.drop_probability = 1.0;
  // Data frames only. Dropping the acks to rank 2 as well would leave rank
  // 2's own (delivered) sends unacked, and rank 2 exhausting *its*
  // retransmit budget races the real senders for which rank gets named —
  // sometimes electing a healthy victim.
  mf.min_payload = runtime::wire::header_doubles + 1;

  recovery_report report;
  const auto recovered = run_distributed_resilient(model, curve, part, dt, 4,
                                                   ropts, &report);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, std::vector<int>{2});  // the unreachable peer
  EXPECT_EQ(report.final_partition.num_parts, 3);

  const auto reference = run_distributed(model, part, dt, 4);
  double max_diff = 0;
  for (std::size_t i = 0; i < reference.size(); ++i)
    max_diff = std::max(max_diff, std::abs(recovered[i] - reference[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(Resilience, Preconditions) {
  const mesh::cubed_sphere m(2);
  const auto model = make_model(m);
  const auto curve = core::build_cube_curve(m);
  const auto part = core::sfc_partition(curve, 4);
  EXPECT_THROW(run_distributed_resilient(model, curve, part, -0.1, 2),
               contract_error);
  EXPECT_THROW(run_distributed_resilient(model, curve, part, 0.01, -1),
               contract_error);
  runtime::resilience_options bad;
  bad.max_recoveries = -1;
  EXPECT_THROW(run_distributed_resilient(model, curve, part, 0.01, 2, bad),
               contract_error);
}

}  // namespace
