// The chaos-soak harness end to end: randomized discrete fault schedules
// heal in place under the reliable transport (agreeing with the fault-free
// run to 1e-12), rank kills on either harness keep the one kill contract,
// a deliberately broken transport (checksum verification off) is caught
// by the soak, and ddmin shrinks the failing schedule to a minimal
// reproducer that survives a JSON round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "seam/chaos.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::seam;

chaos_options small_problem() {
  chaos_options opts;
  opts.ne = 2;
  opts.nranks = 4;
  opts.nsteps = 3;
  opts.reliable.recv_timeout = std::chrono::milliseconds(8000);
  return opts;
}

TEST(ChaosSchedule, GenerationIsDeterministicAndNeverSelfAddressed) {
  const auto a = make_chaos_schedule(42, 4, 16);
  const auto b = make_chaos_schedule(42, 4, 16);
  ASSERT_EQ(a.faults.size(), 16u);
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].what, b.faults[i].what);
    EXPECT_EQ(a.faults[i].src, b.faults[i].src);
    EXPECT_EQ(a.faults[i].dst, b.faults[i].dst);
    EXPECT_EQ(a.faults[i].nth, b.faults[i].nth);
    EXPECT_NE(a.faults[i].src, a.faults[i].dst);
    EXPECT_GE(a.faults[i].src, 0);
    EXPECT_LT(a.faults[i].src, 4);
  }
  // A different seed produces a different schedule.
  const auto c = make_chaos_schedule(43, 4, 16);
  bool any_different = false;
  for (std::size_t i = 0; i < c.faults.size(); ++i)
    any_different = any_different || c.faults[i].src != a.faults[i].src ||
                    c.faults[i].nth != a.faults[i].nth;
  EXPECT_TRUE(any_different);
}

TEST(ChaosSchedule, JsonRoundTripPreservesEveryFault) {
  chaos_schedule s = make_chaos_schedule(0xfedcba9876543210ull, 4, 8);
  const std::string text = io::write_json(chaos_schedule_to_json(s), 2);
  const chaos_schedule back = chaos_schedule_from_json(io::parse_json(text));
  EXPECT_EQ(back.seed, s.seed);
  ASSERT_EQ(back.faults.size(), s.faults.size());
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    EXPECT_EQ(back.faults[i].what, s.faults[i].what);
    EXPECT_EQ(back.faults[i].src, s.faults[i].src);
    EXPECT_EQ(back.faults[i].dst, s.faults[i].dst);
    EXPECT_EQ(back.faults[i].nth, s.faults[i].nth);
  }
  EXPECT_THROW(chaos_schedule_from_json(io::parse_json(
                   R"({"faults": [{"kind": "melt", "src": 0, "dst": 1,
                       "nth": 0}]})")),
               std::exception);
}

TEST(ChaosSchedule, JsonRejectsNonIntegralAndOutOfRangeNumbers) {
  const auto parse = [](const char* text) {
    return chaos_schedule_from_json(io::parse_json(text));
  };
  // A rank far outside int: once an undefined double -> int cast whose
  // replay "passed".
  EXPECT_THROW(parse(R"({"seed": "7", "faults": [{"kind": "drop", "src": 0,
                         "dst": 1e20, "nth": 0}]})"),
               contract_error);
  // Fractions were once truncated and ran as src 0 -> dst 1, nth 0.
  EXPECT_THROW(parse(R"({"seed": "7", "faults": [{"kind": "drop",
                         "src": 0.7, "dst": 1.9, "nth": 0.5}]})"),
               contract_error);
  EXPECT_THROW(parse(R"({"faults": [], "kills": [{"rank": 1,
                         "at_op": 2.5}]})"),
               contract_error);
  EXPECT_THROW(parse(R"({"faults": [{"kind": "drop", "src": 0, "dst": 1,
                         "nth": 1e300}]})"),
               contract_error);
  // A numeric seed must fit a uint64: 2^64 does not.
  EXPECT_THROW(parse(R"({"seed": 18446744073709551616, "faults": []})"),
               contract_error);
  EXPECT_THROW(parse(R"({"seed": 1e30, "faults": []})"), contract_error);
  EXPECT_THROW(parse(R"({"seed": 7.5, "faults": []})"), contract_error);
  // In-range integers written as numbers still parse.
  const chaos_schedule ok = parse(
      R"({"seed": 9007199254740992, "faults": [{"kind": "drop", "src": 2,
          "dst": 0, "nth": 1e3}]})");
  EXPECT_EQ(ok.seed, 9007199254740992ull);
  ASSERT_EQ(ok.faults.size(), 1u);
  EXPECT_EQ(ok.faults[0].src, 2);
  EXPECT_EQ(ok.faults[0].nth, 1000);
}

TEST(ChaosSchedule, UnknownKeysAreRejected) {
  // A misspelt key used to be skipped, so its faults or kills silently
  // never ran and a replay passed vacuously. The error names the key.
  const auto error_of = [](const char* text) -> std::string {
    try {
      (void)chaos_schedule_from_json(io::parse_json(text));
    } catch (const contract_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error_of(R"({"seed": "7", "faults": [],
                         "kils": [{"rank": 1, "at_op": 3}]})")
                .find("'kils'"),
            std::string::npos);
  // The retired byte-stream fault list is an unknown key like any other.
  EXPECT_NE(error_of(R"({"faults": [], "stream": [{"kind": "reset",
                         "src": 0, "dst": 1, "nth": 1}]})")
                .find("'stream'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"faults": [{"kind": "drop", "src": 0, "dst": 1,
                         "nth": 0, "nht": 4}]})")
                .find("'nht'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"faults": [], "kills": [{"rank": 1, "at_op": 3,
                         "at": 9}]})")
                .find("'at'"),
            std::string::npos);
  // Every key the loader reads still parses.
  EXPECT_EQ(error_of(R"({"seed": "7", "faults": [{"kind": "drop", "src": 0,
                         "dst": 1, "nth": 0}],
                         "kills": [{"rank": 1, "at_op": 3}]})"),
            "");
}

TEST(ChaosSchedule, LowersToOneShotFaultPlanEntries) {
  chaos_schedule s;
  s.seed = 7;
  s.faults.push_back({chaos_fault::kind::corrupt, 1, 3, 5});
  const runtime::fault_plan plan = to_fault_plan(s);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.message_faults.size(), 1u);
  EXPECT_EQ(plan.message_faults[0].src, 1);
  EXPECT_EQ(plan.message_faults[0].dst, 3);
  EXPECT_EQ(plan.message_faults[0].corrupt_probability, 1.0);
  EXPECT_EQ(plan.message_faults[0].fire_from, 5);
  EXPECT_EQ(plan.message_faults[0].fire_count, 1);
  EXPECT_EQ(plan.message_faults[0].drop_probability, 0.0);
}

TEST(ChaosSchedule, AdvectionHarnessDrawsOverEveryRankPair) {
  // The advection harness's soak schedules are make_chaos_schedule's,
  // fault for fault.
  const chaos_harness harness(small_problem());
  for (std::uint64_t seed = 1000; seed < 1010; ++seed) {
    const chaos_schedule got = harness.make_schedule(seed, 6);
    const chaos_schedule want = make_chaos_schedule(seed, harness.nranks(), 6);
    ASSERT_EQ(got.faults.size(), want.faults.size());
    for (std::size_t i = 0; i < got.faults.size(); ++i) {
      EXPECT_EQ(got.faults[i].what, want.faults[i].what);
      EXPECT_EQ(got.faults[i].src, want.faults[i].src);
      EXPECT_EQ(got.faults[i].dst, want.faults[i].dst);
      EXPECT_EQ(got.faults[i].nth, want.faults[i].nth);
    }
  }
}

TEST(ChaosSchedule, AdvectionHarnessDrawsOnlyFramesARunSends) {
  // One step sends 3 data frames per halo link, and at 8 ranks on Ne = 2
  // some rank pairs share no element edge or corner. Every drawn fault
  // must land on a frame the run sends, and fire.
  chaos_options opts = small_problem();
  opts.nranks = 8;
  opts.nsteps = 1;
  const chaos_harness harness(opts);
  for (std::uint64_t seed = 1000; seed < 1020; ++seed) {
    const chaos_schedule schedule = harness.make_schedule(seed, 1);
    const chaos_trial t = harness.run(schedule);
    const runtime::rank_counters& c = t.counters;
    EXPECT_TRUE(t.passed) << "seed " << seed << ": " << t.failure;
    EXPECT_EQ(c.injected_drops + c.injected_duplicates +
                  c.injected_corruptions + c.injected_truncations +
                  c.injected_reorders,
              1)
        << "seed " << seed << ": fault on " << schedule.faults[0].src
        << " -> " << schedule.faults[0].dst << " frame "
        << schedule.faults[0].nth << " never fired";
  }
}

TEST(ChaosSchedule, PartitionHarnessDrawsOntoRootLeafDataFrames) {
  // A partition attempt sends data frames only between the root and each
  // leaf, two per link and direction; the harness draws every fault onto
  // one of them, and a drop on the last frame of every link fires.
  const partition_chaos_harness harness;
  const int n = harness.nranks();
  for (std::uint64_t seed = 5000; seed < 5020; ++seed) {
    for (const chaos_fault& f : harness.make_schedule(seed, 6).faults) {
      EXPECT_TRUE((f.src == 0) != (f.dst == 0)) << "seed " << seed;
      EXPECT_LT(std::max(f.src, f.dst), n);
      EXPECT_GE(f.nth, 0);
      EXPECT_LT(f.nth, 2);
    }
  }
  chaos_schedule every_link;
  for (int leaf = 1; leaf < n; ++leaf) {
    every_link.faults.push_back({chaos_fault::kind::drop, 0, leaf, 1});
    every_link.faults.push_back({chaos_fault::kind::drop, leaf, 0, 1});
  }
  const chaos_trial t = harness.run(every_link);
  EXPECT_TRUE(t.passed) << t.failure;
  EXPECT_EQ(t.counters.injected_drops, 2 * (n - 1));

  // Fewer parts than ranks: with 2 parts on 4 ranks only leaf 1 owns a
  // cut, and leaves 2 and 3 send their second frame header-only. Every
  // drawn fault must still land on a frame that exists, and fire.
  partition_chaos_options few_parts;
  few_parts.nparts = 2;
  const partition_chaos_harness sparse(few_parts);
  for (std::uint64_t seed = 5000; seed < 5020; ++seed) {
    const chaos_schedule schedule = sparse.make_schedule(seed, 1);
    const chaos_trial u = sparse.run(schedule);
    const runtime::rank_counters& c = u.counters;
    EXPECT_TRUE(u.passed) << "seed " << seed << ": " << u.failure;
    EXPECT_EQ(c.injected_drops + c.injected_duplicates +
                  c.injected_corruptions + c.injected_truncations +
                  c.injected_reorders,
              1)
        << "seed " << seed << ": fault on " << schedule.faults[0].src
        << " -> " << schedule.faults[0].dst << " frame "
        << schedule.faults[0].nth << " never fired";
  }
}

TEST(ChaosSoak, FiftyRandomizedSchedulesHealInPlace) {
  // The headline soak: 50 seeded schedules of discrete drop / duplicate /
  // corrupt / truncate / reorder faults, every one healed by the reliable
  // transport with zero re-slices and 1e-12 agreement with the fault-free
  // baseline.
  const chaos_harness harness(small_problem());
  const soak_report report =
      run_chaos_soak(harness, /*base_seed=*/1000, /*trials=*/50,
                     /*nfaults=*/6);
  EXPECT_EQ(report.trials, 50);
  for (const auto& f : report.failures)
    ADD_FAILURE() << "seed " << f.schedule.seed << ": " << f.trial.failure;
  EXPECT_TRUE(report.failures.empty());
  // The schedules actually exercised the healing machinery.
  EXPECT_GT(report.reliable.retransmits, 0);
  EXPECT_GT(report.reliable.corruption_detected, 0);
  EXPECT_GT(report.reliable.dedup_dropped, 0);
}

TEST(ChaosSoak, ChecksumDisabledTransportIsCaughtAndShrunk) {
  // The harness's reason to exist: break the transport (skip checksum
  // verification, the designated test hook) and the soak must catch it —
  // an undetected bit flip reaches the tracer field — and shrink the
  // failing schedule to a tiny reproducer.
  chaos_options opts = small_problem();
  opts.reliable.verify_checksums = false;
  const chaos_harness harness(opts);
  const soak_report report =
      run_chaos_soak(harness, /*base_seed=*/5000, /*trials=*/20,
                     /*nfaults=*/6);
  ASSERT_FALSE(report.failures.empty())
      << "a checksum-less transport survived 20 corrupting schedules";
  const soak_failure& f = report.failures.front();
  EXPECT_FALSE(f.trial.passed);
  EXPECT_FALSE(f.trial.failure.empty());
  // ddmin leaves a 1-minimal subset; the root cause here is one or two
  // undetected corruptions, so the reproducer must be tiny.
  EXPECT_LE(f.shrunk.faults.size(), 3u);
  EXPECT_GE(f.shrunk.faults.size(), 1u);

  // The reproducer replays: a JSON round trip of the shrunk schedule still
  // fails the trial.
  const std::string text = io::write_json(soak_failure_to_json(f), 2);
  const io::json_value doc = io::parse_json(text);
  const chaos_schedule replay = chaos_schedule_from_json(doc.at("shrunk"));
  EXPECT_EQ(replay.faults.size(), f.shrunk.faults.size());
  EXPECT_FALSE(harness.run(replay).passed);
}

// ---------------------------------------------------------------------------
// Rank-kill vocabulary: generation, JSON round trip, lowering, and the
// partition-mode soak contract (a kill restarts the partition on the
// survivors, which must reproduce the serial plan; only a schedule that
// can exhaust the restart ladder may abort — no silent wrong plans).

TEST(ChaosKills, AddKillsIsDeterministicAndInRange) {
  chaos_schedule a = make_chaos_schedule(77, 4, 0);
  chaos_schedule b = make_chaos_schedule(77, 4, 0);
  add_kills(a, /*nranks=*/4, /*nkills=*/3);
  add_kills(b, /*nranks=*/4, /*nkills=*/3);
  ASSERT_EQ(a.kills.size(), 3u);
  for (std::size_t i = 0; i < a.kills.size(); ++i) {
    EXPECT_EQ(a.kills[i].rank, b.kills[i].rank);
    EXPECT_EQ(a.kills[i].at_op, b.kills[i].at_op);
    EXPECT_GE(a.kills[i].rank, 0);
    EXPECT_LT(a.kills[i].rank, 4);
    EXPECT_GE(a.kills[i].at_op, 1);
  }
}

TEST(ChaosKills, JsonRoundTripPreservesKillsAndRejectsBadOnes) {
  chaos_schedule s = make_chaos_schedule(5, 4, 2);
  add_kills(s, 4, 2);
  const std::string text = io::write_json(chaos_schedule_to_json(s), 2);
  const chaos_schedule back = chaos_schedule_from_json(io::parse_json(text));
  ASSERT_EQ(back.kills.size(), s.kills.size());
  for (std::size_t i = 0; i < s.kills.size(); ++i) {
    EXPECT_EQ(back.kills[i].rank, s.kills[i].rank);
    EXPECT_EQ(back.kills[i].at_op, s.kills[i].at_op);
  }
  EXPECT_THROW(chaos_schedule_from_json(io::parse_json(
                   R"({"kills": [{"rank": -1, "at_op": 3}]})")),
               std::exception);
  EXPECT_THROW(chaos_schedule_from_json(io::parse_json(
                   R"({"kills": [{"rank": 0, "at_op": 0}]})")),
               std::exception);
  // A kills-only file loads: "faults" is optional like "kills".
  const chaos_schedule kills_only = chaos_schedule_from_json(io::parse_json(
      R"({"seed": "7", "kills": [{"rank": 2, "at_op": 40}]})"));
  EXPECT_EQ(kills_only.seed, 7u);
  EXPECT_TRUE(kills_only.faults.empty());
  ASSERT_EQ(kills_only.kills.size(), 1u);
  EXPECT_EQ(kills_only.kills[0].rank, 2);
  EXPECT_EQ(kills_only.kills[0].at_op, 40);
}

TEST(ChaosKills, LowersToFaultPlanKillSpecs) {
  chaos_schedule s;
  s.seed = 9;
  s.kills.push_back({2, 7});
  const runtime::fault_plan plan = to_fault_plan(s);
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0].rank, 2);
  EXPECT_EQ(plan.kills[0].at_op, 7);
}

TEST(ChaosKills, PartitionSoakKeepsSerialParityThroughKills) {
  // A compact version of the CI rank-kill soak: every schedule must
  // recover into the exact serial plan and lose exactly the ranks whose
  // kill fired, or abort cleanly when it can exhaust the ladder; any other
  // outcome is a failure.
  const partition_chaos_harness harness;
  const soak_report report =
      run_chaos_soak(harness, /*base_seed=*/1000, /*trials=*/10,
                     /*nfaults=*/0, /*nkills=*/1);
  EXPECT_EQ(report.trials, 10);
  for (const auto& f : report.failures)
    ADD_FAILURE() << "seed " << f.schedule.seed << ": " << f.trial.failure;
  EXPECT_GT(report.recovered_trials, 0);
}

TEST(ChaosKills, AdvectionDirectedKillReslicesAroundTheDeadRank) {
  // A kill cannot heal in place: the run restarts on the survivors, which
  // re-slice the curve around the dead rank — only its segment moves —
  // and still match the fault-free tracer field.
  const chaos_harness harness(small_problem());
  chaos_schedule schedule;
  schedule.seed = 7;
  schedule.kills.push_back({2, 12});
  const chaos_trial t = harness.run(schedule);
  EXPECT_TRUE(t.passed) << t.failure;
  EXPECT_FALSE(t.aborted);
  EXPECT_EQ(t.lost_ranks, std::vector<int>{2});
  EXPECT_EQ(t.recoveries, 1);
  EXPECT_GT(t.migration.moved_elements, 0);
  EXPECT_EQ(t.final_partition.num_parts, harness.nranks() - 1);
  EXPECT_LE(t.max_abs_diff, chaos_tolerance);
}

TEST(ChaosKills, AdvectionSoakKeepsTheKillContract) {
  // Message faults and a kill per schedule: every run recovers to the
  // fault-free field, losing exactly the ranks whose kill fired.
  const chaos_harness harness(small_problem());
  const soak_report report =
      run_chaos_soak(harness, /*base_seed=*/1000, /*trials=*/10,
                     /*nfaults=*/2, /*nkills=*/1);
  EXPECT_EQ(report.trials, 10);
  for (const auto& f : report.failures)
    ADD_FAILURE() << "seed " << f.schedule.seed << ": " << f.trial.failure;
  EXPECT_GT(report.recovered_trials, 0);
}

TEST(ChaosKills, AdvectionRunThatLosesEveryRankIsACleanAbort) {
  // Every rank dies at its first op: the ladder runs dry, and the harness
  // accepts the abort because the schedule can starve it. The aborted
  // trial keeps its accounting.
  const chaos_harness harness(small_problem());
  chaos_schedule schedule;
  for (int r = 0; r < harness.nranks(); ++r) schedule.kills.push_back({r, 1});
  const chaos_trial t = harness.run(schedule);
  EXPECT_TRUE(t.passed) << t.failure;
  EXPECT_TRUE(t.aborted);
  EXPECT_EQ(t.lost_ranks.size(), static_cast<std::size_t>(harness.nranks()));
  EXPECT_GT(t.counters.injected_kills, 0);
  EXPECT_EQ(t.final_partition.num_parts, 0);
}

TEST(ChaosShrink, UnreproducibleFailureIsReturnedUnchanged) {
  // A schedule that passes cannot be shrunk; shrink_failure hands it back
  // whole — faults and kills alike. The kill lies past the last op, so it
  // never fires and the trial still heals in place.
  const chaos_harness harness(small_problem());
  chaos_schedule benign = make_chaos_schedule(1000, 4, 2);
  benign.kills.push_back({1, 1'000'000});
  ASSERT_TRUE(harness.run(benign).passed);
  const chaos_schedule kept = shrink_failure(
      benign, [&](const chaos_schedule& s) { return !harness.run(s).passed; });
  EXPECT_EQ(kept.faults.size(), benign.faults.size());
  EXPECT_EQ(kept.kills.size(), benign.kills.size());
}

// A schedule whose entries are told apart by their indices: faults carry
// nth 0..11, kills at_op 100..102.
chaos_schedule labelled_schedule() {
  chaos_schedule s;
  s.seed = 31;
  for (int i = 0; i < 12; ++i)
    s.faults.push_back({chaos_fault::kind::drop, 0, 1, i});
  for (int i = 0; i < 3; ++i) s.kills.push_back({2, 100 + i});
  return s;
}

bool has_fault(const chaos_schedule& s, std::int64_t nth) {
  for (const auto& f : s.faults)
    if (f.nth == nth) return true;
  return false;
}
bool has_kill(const chaos_schedule& s, std::int64_t at_op) {
  for (const auto& k : s.kills)
    if (k.at_op == at_op) return true;
  return false;
}

// Removing any single entry of `s` makes `fails` pass.
void expect_one_minimal(
    const chaos_schedule& s,
    const std::function<bool(const chaos_schedule&)>& fails) {
  ASSERT_TRUE(fails(s));
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    chaos_schedule c = s;
    c.faults.erase(c.faults.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(fails(c)) << "fault " << i << " is not needed";
  }
  for (std::size_t i = 0; i < s.kills.size(); ++i) {
    chaos_schedule c = s;
    c.kills.erase(c.kills.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(fails(c)) << "kill " << i << " is not needed";
  }
}

TEST(ChaosShrink, DdminIsOneMinimalAcrossFaultsAndKills) {
  // 12 faults + 3 kills in; the synthetic failure needs
  // exactly one fault and one kill, and ddmin keeps exactly those two.
  const chaos_schedule failing = labelled_schedule();
  const auto fails = [](const chaos_schedule& s) {
    return has_fault(s, 7) && has_kill(s, 101);
  };
  const chaos_schedule shrunk = shrink_failure(failing, fails);
  EXPECT_EQ(shrunk.seed, failing.seed);
  ASSERT_EQ(shrunk.faults.size(), 1u);
  EXPECT_EQ(shrunk.faults[0].nth, 7);
  ASSERT_EQ(shrunk.kills.size(), 1u);
  EXPECT_EQ(shrunk.kills[0].at_op, 101);
  expect_one_minimal(shrunk, fails);
}

TEST(ChaosShrink, ChecksumDisabledPartitionFailureIsCaughtAndShrunk) {
  // The partition harness's shrink path end to end: with checksum
  // verification off an undetected bit flip reaches the plan, the soak
  // catches it, ddmin shrinks the schedule, and the shrunk reproducer
  // still fails after a JSON round trip. The harness draws its faults onto
  // the two data frames per (root, leaf) link and direction that an
  // attempt sends, but a flip must land on one of the few payload words
  // to change the plan, so the soak runs 100 schedules.
  partition_chaos_options opts;
  opts.reliable.verify_checksums = false;
  const partition_chaos_harness harness(opts);
  const soak_report report =
      run_chaos_soak(harness, /*base_seed=*/5000, /*trials=*/100,
                     /*nfaults=*/6, /*nkills=*/0);
  ASSERT_FALSE(report.failures.empty())
      << "a checksum-less partition survived 100 corrupting schedules";
  const soak_failure& f = report.failures.front();
  EXPECT_FALSE(f.trial.passed);
  EXPECT_FALSE(f.trial.failure.empty());
  EXPECT_GE(f.shrunk.faults.size(), 1u);
  EXPECT_LT(f.shrunk.faults.size(), f.schedule.faults.size());

  const std::string text = io::write_json(soak_failure_to_json(f), 2);
  const chaos_schedule replay =
      chaos_schedule_from_json(io::parse_json(text).at("shrunk"));
  EXPECT_EQ(replay.faults.size(), f.shrunk.faults.size());
  EXPECT_FALSE(harness.run(replay).passed);
}

}  // namespace
