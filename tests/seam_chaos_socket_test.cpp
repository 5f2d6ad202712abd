// The chaos contract across transport backends: the socket wire soaks
// under the same discrete schedules as the in-process one, the
// schedule-determined counters agree per schedule on both backends, and
// byte-stream faults (native frames on the socket backend, lowered
// message-level equivalents in-process) heal without data loss either way.
//
// Registered under "chaos-transport": part of the chaos suite (`-L chaos`),
// deliberately outside the tsan-preset `-L runtime` filter — the soak's
// wall clock, not its thread discipline, is the binding constraint here
// (runtime_transport_test carries the tsan coverage for the socket wire).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "io/json.hpp"
#include "seam/chaos.hpp"

namespace {

using namespace sfp;
using namespace sfp::seam;

chaos_options small_problem(runtime::transport_backend backend) {
  chaos_options opts;
  opts.ne = 2;
  opts.nranks = 4;
  opts.nsteps = 3;
  opts.reliable.recv_timeout = std::chrono::milliseconds(8000);
  opts.backend = backend;
  return opts;
}

TEST(ChaosSchedule, StreamFaultsAreSeededAndRoundTripThroughJson) {
  chaos_schedule s = make_chaos_schedule(77, 4, 4);
  add_stream_faults(s, 4, 3);
  ASSERT_EQ(s.stream_faults.size(), 3u);
  for (const auto& f : s.stream_faults) {
    EXPECT_NE(f.src, f.dst);
    EXPECT_GE(f.src, 0);
    EXPECT_LT(f.src, 4);
    EXPECT_GE(f.nth, 0);
  }
  // Pure function of (schedule seed, args).
  chaos_schedule again = make_chaos_schedule(77, 4, 4);
  add_stream_faults(again, 4, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(again.stream_faults[i].what, s.stream_faults[i].what);
    EXPECT_EQ(again.stream_faults[i].src, s.stream_faults[i].src);
    EXPECT_EQ(again.stream_faults[i].dst, s.stream_faults[i].dst);
    EXPECT_EQ(again.stream_faults[i].nth, s.stream_faults[i].nth);
  }

  const std::string text = io::write_json(chaos_schedule_to_json(s), 2);
  const chaos_schedule back = chaos_schedule_from_json(io::parse_json(text));
  ASSERT_EQ(back.stream_faults.size(), s.stream_faults.size());
  for (std::size_t i = 0; i < s.stream_faults.size(); ++i) {
    EXPECT_EQ(back.stream_faults[i].what, s.stream_faults[i].what);
    EXPECT_EQ(back.stream_faults[i].src, s.stream_faults[i].src);
    EXPECT_EQ(back.stream_faults[i].dst, s.stream_faults[i].dst);
    EXPECT_EQ(back.stream_faults[i].nth, s.stream_faults[i].nth);
  }
  EXPECT_THROW(chaos_schedule_from_json(io::parse_json(
                   R"({"faults": [], "stream": [{"kind": "melt", "src": 0,
                       "dst": 1, "nth": 0}]})")),
               std::exception);
}

TEST(ChaosSchedule, StreamFaultsLowerForInprocAndStayNativeForSocket) {
  chaos_schedule s;
  s.seed = 9;
  s.stream_faults = {
      {.what = runtime::stream_fault::kind::truncate, .src = 0, .dst = 1,
       .nth = 2},
      {.what = runtime::stream_fault::kind::reset, .src = 1, .dst = 2,
       .nth = 3},
      {.what = runtime::stream_fault::kind::split, .src = 2, .dst = 3,
       .nth = 4},
      {.what = runtime::stream_fault::kind::stall, .src = 3, .dst = 0,
       .nth = 5},
  };

  // In-process: every stream fault lowers to its closest message-level
  // equivalent so the reliable layer faces the same delivery outcome.
  const runtime::fault_plan inproc =
      to_fault_plan(s, runtime::transport_backend::inproc);
  ASSERT_EQ(inproc.message_faults.size(), 4u);
  EXPECT_EQ(inproc.message_faults[0].truncate_probability, 1.0);
  EXPECT_EQ(inproc.message_faults[1].drop_probability, 1.0);
  EXPECT_EQ(inproc.message_faults[2].delay_probability, 1.0);
  EXPECT_EQ(inproc.message_faults[3].delay_probability, 1.0);
  for (const auto& mf : inproc.message_faults) {
    EXPECT_EQ(mf.fire_count, 1);
    EXPECT_GE(mf.min_payload, 1u);  // pinned to data frames
  }

  // Socket: no lowering — the frames are mangled natively instead.
  const runtime::fault_plan socket =
      to_fault_plan(s, runtime::transport_backend::socket);
  EXPECT_TRUE(socket.message_faults.empty());
  const runtime::stream_fault_plan native = to_stream_plan(s);
  ASSERT_EQ(native.faults.size(), 4u);
  EXPECT_EQ(native.faults[1].what, runtime::stream_fault::kind::reset);
  EXPECT_EQ(native.faults[1].nth, 3);
}

TEST(ChaosSocketSoak, FiftySchedulesHealOverTheSocketBackend) {
  // The acceptance soak, verbatim on the socket wire: the same 50 seeds
  // the in-process soak runs, healed to 1e-12 with one attempt each.
  const chaos_harness harness(
      small_problem(runtime::transport_backend::socket));
  const soak_report report =
      run_chaos_soak(harness, /*base_seed=*/1000, /*trials=*/50,
                     /*nfaults=*/6);
  EXPECT_EQ(report.trials, 50);
  for (const auto& f : report.failures)
    ADD_FAILURE() << "seed " << f.schedule.seed << ": " << f.trial.failure;
  EXPECT_TRUE(report.failures.empty());
  EXPECT_GT(report.reliable.retransmits, 0);
  EXPECT_GT(report.reliable.corruption_detected, 0);
  EXPECT_GT(report.reliable.dedup_dropped, 0);
  // And it genuinely ran over sockets.
  EXPECT_GT(report.socket.connects, 0);
  EXPECT_GT(report.socket.frames_received, 0);
}

TEST(ChaosSocketSoak, ScheduleDeterminedCountersMatchAcrossBackends) {
  // One schedule, two fabrics, the same ladder: the injected-fault counters
  // are a function of the schedule alone, so they must agree per schedule
  // on every backend. (Timing-dependent totals — retransmits, acks — may
  // differ; the schedule-determined subset may not.)
  const chaos_harness inproc(
      small_problem(runtime::transport_backend::inproc));
  const chaos_harness socket(
      small_problem(runtime::transport_backend::socket));
  for (std::uint64_t seed = 1000; seed < 1012; ++seed) {
    const chaos_schedule schedule =
        make_chaos_schedule(seed, inproc.options().nranks, 6);
    const chaos_trial a = inproc.run(schedule);
    const chaos_trial b = socket.run(schedule);
    ASSERT_TRUE(a.passed) << "seed " << seed << ": " << a.failure;
    ASSERT_TRUE(b.passed) << "seed " << seed << ": " << b.failure;
    EXPECT_EQ(a.attempts, b.attempts) << "seed " << seed;
    EXPECT_EQ(a.counters.injected_drops, b.counters.injected_drops)
        << "seed " << seed;
    EXPECT_EQ(a.counters.injected_duplicates, b.counters.injected_duplicates)
        << "seed " << seed;
    EXPECT_EQ(a.counters.injected_corruptions,
              b.counters.injected_corruptions)
        << "seed " << seed;
    EXPECT_EQ(a.counters.injected_truncations,
              b.counters.injected_truncations)
        << "seed " << seed;
    EXPECT_EQ(a.counters.injected_reorders, b.counters.injected_reorders)
        << "seed " << seed;
  }
}

TEST(ChaosSocketSoak, StreamFaultSchedulesHealOnBothBackends) {
  // Byte-stream chaos under the message-level chaos: native truncated /
  // split / reset / stalled frames on the socket backend, their lowered
  // equivalents in-process — healed without data loss either way.
  const chaos_harness socket(
      small_problem(runtime::transport_backend::socket));
  const soak_report socket_report =
      run_chaos_soak(socket, /*base_seed=*/3000, /*trials=*/10,
                     /*nfaults=*/4, /*nstream=*/2);
  for (const auto& f : socket_report.failures)
    ADD_FAILURE() << "socket seed " << f.schedule.seed << ": "
                  << f.trial.failure;
  EXPECT_TRUE(socket_report.failures.empty());
  EXPECT_GT(socket_report.socket.injected_stream_faults, 0);

  const chaos_harness inproc(
      small_problem(runtime::transport_backend::inproc));
  const soak_report inproc_report =
      run_chaos_soak(inproc, /*base_seed=*/3000, /*trials=*/10,
                     /*nfaults=*/4, /*nstream=*/2);
  for (const auto& f : inproc_report.failures)
    ADD_FAILURE() << "inproc seed " << f.schedule.seed << ": "
                  << f.trial.failure;
  EXPECT_TRUE(inproc_report.failures.empty());
  EXPECT_EQ(inproc_report.socket.injected_stream_faults, 0);  // lowered away
}

}  // namespace
