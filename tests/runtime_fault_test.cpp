// Tests for the fault-tolerant runtime layer: deadlock-free abort when a
// rank fails, receive deadlines, deterministic fault injection, and the
// per-rank robustness counters.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/reliable.hpp"
#include "runtime/world.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp::runtime;
using namespace std::chrono_literals;

/// Blocking receive of the next message, from any source; a
/// fabric abort wakes it with world_aborted.
any_message recv_any(transport& t) {
  any_message m;
  while (!t.try_recv_any(1ms, &m)) {
  }
  return m;
}

// ---- deadlock-free abort ----------------------------------------------------

TEST(WorldAbort, RankThrowMidBarrierWakesPeers) {
  // The regression this layer exists for: rank 2 dies while everyone else is
  // parked in a barrier (the channel's pumping fence). Before the abort
  // protocol, world::run's join loop hung forever; now the peers throw
  // world_aborted and the root cause is rethrown.
  world w(4);
  EXPECT_THROW(w.run([](transport& t) {
                 if (t.rank() == 2) throw std::runtime_error("rank 2 died");
                 reliable_channel channel(t, {.recv_timeout = 0ms});
                 channel.fence();  // must not hang
               }),
               std::runtime_error);
  EXPECT_TRUE(w.aborted());
  EXPECT_EQ(w.failed_rank(), 2);
  // The three survivors each observed exactly one abort.
  EXPECT_EQ(w.total_counters().aborts_observed, 3);
}

TEST(WorldAbort, RankThrowWakesPeersBlockedInRecv) {
  world w(3);
  EXPECT_THROW(w.run([](transport& t) {
                 if (t.rank() == 0) throw std::runtime_error("rank 0 died");
                 recv_any(t);  // rank 0 never sends — must not hang
               }),
               std::runtime_error);
  EXPECT_EQ(w.failed_rank(), 0);
}

TEST(WorldAbort, SurvivorsSeeFailedRankInException) {
  world w(2);
  try {
    w.run([](transport& t) {
      if (t.rank() == 1) throw std::logic_error("boom");
      try {
        recv_any(t);
        FAIL() << "recv should have aborted";
      } catch (const world_aborted& e) {
        EXPECT_EQ(e.failed_rank(), 1);
        throw;
      }
    });
    FAIL() << "run should rethrow";
  } catch (const std::logic_error&) {
    // root cause, not the cascading world_aborted
  }
}

TEST(WorldAbort, WorldIsReusableAfterAbort) {
  world w(3);
  EXPECT_THROW(w.run([](transport& t) {
                 if (t.rank() == 0) throw std::runtime_error("once");
                 recv_any(t);
               }),
               std::runtime_error);
  // Same world, clean run: fabric and failure state were reset.
  w.run([](transport& t) {
    t.send((t.rank() + 1) % 3, std::vector<double>{1.0});
    EXPECT_EQ(recv_any(t).src, (t.rank() + 2) % 3);
  });
  EXPECT_FALSE(w.aborted());
  EXPECT_EQ(w.failed_rank(), -1);
  EXPECT_EQ(w.total_counters().aborts_observed, 0);
}

// ---- constructor validation -------------------------------------------------

TEST(WorldOptions, ConstructorValidatesBeforeBuildingMembers) {
  EXPECT_THROW(world(0), sfp::contract_error);
  EXPECT_THROW(world(-5), sfp::contract_error);
  EXPECT_THROW(world(-1, fault_plan{}), sfp::contract_error);
}

// ---- timeouts ---------------------------------------------------------------
//
// The world itself never times out; deadlines belong to the reliable channel
// pumping it, which turns a silent peer into peer_unreachable_error.

TEST(WorldTimeout, RecvTimesOutInsteadOfHanging) {
  world w(2);
  try {
    w.run([](transport& t) {
      reliable_channel channel(t, {.recv_timeout = 50ms});
      if (t.rank() == 1) channel.recv(0);  // never sent
    });
    FAIL() << "run should rethrow the timeout";
  } catch (const peer_unreachable_error& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.peer(), 0);
    EXPECT_EQ(e.attempts(), 0);  // a bare receive deadline, not exhaustion
  }
  EXPECT_EQ(w.failed_rank(), 1);
}

TEST(WorldTimeout, BarrierTimesOutWhenRankStaysAway) {
  world w(3);
  EXPECT_THROW(w.run([](transport& t) {
                 reliable_channel channel(t, {.recv_timeout = 50ms});
                 if (t.rank() != 0) channel.fence();  // rank 0 never arrives
               }),
               peer_unreachable_error);
  EXPECT_TRUE(w.aborted());
}

TEST(WorldTimeout, GenerousTimeoutDoesNotPerturbCleanRuns) {
  world w(4);
  w.run([](transport& t) {
    reliable_channel channel(t, {.recv_timeout = 30000ms});
    channel.send((t.rank() + 1) % 4, std::vector<double>{1.0});
    EXPECT_EQ(channel.recv((t.rank() + 3) % 4).size(), 1u);
    channel.fence();
  });
  EXPECT_FALSE(w.aborted());
  EXPECT_EQ(w.total_counters().aborts_observed, 0);
}

// ---- fault injection --------------------------------------------------------

TEST(FaultInjection, KillFiresAtExactOp) {
  fault_plan faults;
  faults.kills.push_back({/*rank=*/1, /*at_op=*/3});
  world w(2, faults);
  try {
    w.run([](transport& t) {
      if (t.rank() == 1) {
        t.send(0, std::vector<double>{1.0});  // op 1
        t.send(0, std::vector<double>{2.0});  // op 2
        t.send(0, std::vector<double>{3.0});  // op 3 — killed here
        FAIL() << "rank 1 should be dead";
      } else {
        recv_any(t);
        recv_any(t);
        recv_any(t);  // never arrives: killed before delivery
      }
    });
    FAIL() << "run should rethrow the kill";
  } catch (const rank_killed& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.op(), 3);
  }
  EXPECT_EQ(w.failed_rank(), 1);
  EXPECT_EQ(w.counters(1).injected_kills, 1);
  // Rank 1 delivered exactly the two messages before the kill; rank 0
  // consumed at most those (it may observe the abort first if it is still
  // ahead of the deliveries when the kill lands).
  EXPECT_EQ(w.counters(1).messages_sent, 2);
  EXPECT_LE(w.counters(0).messages_received, 2);
}

TEST(FaultInjection, ReceivesAreNotOps) {
  // Only sends advance the op counter the kills fire on, on every backend:
  // a rank that polls its inbox any number of times is never killed by
  // polling.
  fault_plan faults;
  faults.kills.push_back({/*rank=*/0, /*at_op=*/2});
  world w(2, faults);
  w.run([](transport& t) {
    if (t.rank() == 0) {
      any_message m;
      for (int i = 0; i < 10; ++i) t.try_recv_any(0us, &m);
      t.send(1, std::vector<double>{1.0});  // op 1
    } else {
      recv_any(t);
    }
  });
  EXPECT_EQ(w.counters(0).injected_kills, 0);
}

TEST(FaultInjection, DropPlusTimeoutAbortsCleanly) {
  fault_plan faults;
  auto& mf = faults.message_faults.emplace_back();
  mf.src = 0;
  mf.dst = 1;
  mf.drop_probability = 1.0;  // every 0->1 message vanishes
  world w(2, faults);
  EXPECT_THROW(w.run([](transport& t) {
                 reliable_channel channel(t, {.recv_timeout = 50ms});
                 if (t.rank() == 0) {
                   channel.send(1, std::vector<double>{42.0});
                 } else {
                   channel.recv(0);  // dropped — times out, no hang
                 }
               }),
               peer_unreachable_error);
  EXPECT_GE(w.counters(0).injected_drops, 1);
  EXPECT_EQ(w.counters(0).messages_sent, 0);
  EXPECT_EQ(w.counters(1).messages_received, 0);
}

TEST(FaultInjection, DuplicatesPreserveOrderedDelivery) {
  fault_plan faults;
  auto& mf = faults.message_faults.emplace_back();
  mf.duplicate_probability = 1.0;
  world w(2, faults);
  w.run([](transport& t) {
    constexpr int kCount = 20;
    if (t.rank() == 0) {
      for (int i = 0; i < kCount; ++i)
        t.send(1, std::vector<double>{static_cast<double>(i)});
    } else {
      // Every message arrives twice, in order.
      for (int i = 0; i < kCount; ++i) {
        EXPECT_DOUBLE_EQ(recv_any(t).payload[0], static_cast<double>(i));
        EXPECT_DOUBLE_EQ(recv_any(t).payload[0], static_cast<double>(i));
      }
    }
  });
  EXPECT_EQ(w.counters(0).injected_duplicates, 20);
  EXPECT_EQ(w.counters(0).messages_sent, 40);
}

TEST(FaultInjection, DelayedMessagesStillArrive) {
  fault_plan faults;
  auto& mf = faults.message_faults.emplace_back();
  mf.delay_probability = 0.5;
  mf.delay = std::chrono::microseconds(300);
  faults.seed = 7;
  world w(3, faults);
  w.run([](transport& t) {
    const int next = (t.rank() + 1) % 3;
    const int prev = (t.rank() + 2) % 3;
    for (int i = 0; i < 30; ++i) {
      t.send(next, std::vector<double>{static_cast<double>(i)});
      const any_message m = recv_any(t);
      EXPECT_EQ(m.src, prev);
      EXPECT_DOUBLE_EQ(m.payload[0], static_cast<double>(i));
    }
  });
  EXPECT_GT(w.total_counters().injected_delays, 0);
  EXPECT_EQ(w.total_counters().messages_received, 90);
}

TEST(FaultInjection, ChaosScheduleIsDeterministicAcrossRuns) {
  // Same seed, same program -> identical injected-fault counts and
  // identical per-rank traffic, independent of thread scheduling.
  const auto run_once = [](std::uint64_t seed) {
    fault_plan faults;
    faults.seed = seed;
    auto& mf = faults.message_faults.emplace_back();
    mf.drop_probability = 0.0;
    mf.delay_probability = 0.3;
    mf.duplicate_probability = 0.4;
    mf.delay = std::chrono::microseconds(100);
    world w(4, faults);
    w.run([](transport& t) {
      for (int round = 0; round < 10; ++round) {
        for (int dst = 0; dst < 4; ++dst) {
          if (dst == t.rank()) continue;
          t.send(dst, std::vector<double>{1.0});
        }
      }
    });
    std::vector<std::int64_t> signature;
    for (int r = 0; r < 4; ++r) {
      const auto& counter = w.counters(r);
      signature.push_back(counter.messages_sent);
      signature.push_back(counter.injected_delays);
      signature.push_back(counter.injected_duplicates);
    }
    return signature;
  };
  const auto a = run_once(123), b = run_once(123), c = run_once(999);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // a different seed draws a different schedule
}

TEST(FaultInjection, ScheduleIsInvariantUnderThreadInterleaving) {
  // Fault decisions must be a pure function of (seed, rank, op index) — the
  // wall-clock interleaving of the rank threads must not matter. Force two
  // very different interleavings with per-rank staggered start delays
  // (ascending in one run, descending in the other) and demand identical
  // per-rank fault decisions and traffic.
  constexpr int kRanks = 4;
  const auto run_once = [](bool reverse_stagger) {
    fault_plan faults;
    faults.seed = 42;
    auto& mf = faults.message_faults.emplace_back();
    mf.delay_probability = 0.25;
    mf.duplicate_probability = 0.25;
    mf.delay = std::chrono::microseconds(50);
    world w(kRanks, faults);
    w.run([reverse_stagger](transport& t) {
      const int slot = reverse_stagger ? kRanks - 1 - t.rank() : t.rank();
      std::this_thread::sleep_for(std::chrono::microseconds(200 * slot));
      for (int round = 0; round < 8; ++round) {
        t.send((t.rank() + 1) % kRanks, std::vector<double>{1.0});
        EXPECT_EQ(recv_any(t).src, (t.rank() + kRanks - 1) % kRanks);
      }
    });
    std::vector<std::int64_t> signature;
    for (int r = 0; r < kRanks; ++r) {
      const auto& counter = w.counters(r);
      signature.push_back(counter.messages_sent);
      signature.push_back(counter.messages_received);
      signature.push_back(counter.injected_delays);
      signature.push_back(counter.injected_duplicates);
      signature.push_back(counter.injected_drops);
    }
    return signature;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

// ---- counters ---------------------------------------------------------------

TEST(Counters, AccountForCleanTraffic) {
  world w(2);
  w.run([](transport& t) {
    if (t.rank() == 0) {
      t.send(1, std::vector<double>(5, 1.0));
    } else {
      EXPECT_EQ(recv_any(t).payload.size(), 5u);
    }
  });
  EXPECT_EQ(w.counters(0).messages_sent, 1);
  EXPECT_EQ(w.counters(0).doubles_sent, 5);
  EXPECT_EQ(w.counters(1).messages_received, 1);
  EXPECT_EQ(w.counters(1).doubles_received, 5);
  const auto total = w.total_counters();
  EXPECT_EQ(total.messages_sent, 1);
  EXPECT_EQ(total.aborts_observed, 0);
  EXPECT_THROW(w.counters(2), sfp::contract_error);
}

TEST(FaultInjection, MinPayloadSkipsHeaderOnlyFrames) {
  // A min_payload filter makes header-only frames (acks, fence tokens)
  // invisible to the entry: they neither fire nor advance its match index.
  fault_plan plan;
  plan.seed = 5;
  fault_plan::message_fault mf;
  mf.drop_probability = 1.0;
  mf.min_payload = 7;
  mf.fire_from = 1;
  mf.fire_count = 1;
  plan.message_faults.push_back(mf);

  fault_injector inj(plan, 0);
  EXPECT_FALSE(inj.on_send(1, 6).drop);   // header-only: no match
  EXPECT_FALSE(inj.on_send(1, 10).drop);  // data match #0: before window
  EXPECT_FALSE(inj.on_send(1, 6).drop);   // header-only again
  EXPECT_TRUE(inj.on_send(1, 10).drop);   // data match #1: fires
  EXPECT_FALSE(inj.on_send(1, 10).drop);  // data match #2: window closed
}

TEST(FaultInjection, FireWindowPinsAFaultToSpecificMatches) {
  // drop with probability 1 but a [2, 4) window: of six matching sends,
  // exactly the third and fourth are dropped; the rng stream still
  // advances on every match, so a sibling entry's decisions are untouched
  // by the window (checked by comparing against the same plan windowless).
  fault_plan plan;
  plan.seed = 99;
  fault_plan::message_fault mf;
  mf.drop_probability = 1.0;
  mf.fire_from = 2;
  mf.fire_count = 2;
  plan.message_faults.push_back(mf);

  fault_injector inj(plan, /*rank=*/0);
  std::vector<bool> dropped;
  for (int i = 0; i < 6; ++i)
    dropped.push_back(inj.on_send(1, 8).drop);
  EXPECT_EQ(dropped, (std::vector<bool>{false, false, true, true, false,
                                        false}));

  // Windowed and windowless plans draw identical corrupt positions.
  fault_plan probed = plan;
  probed.message_faults[0].corrupt_probability = 1.0;
  fault_plan windowless = probed;
  windowless.message_faults[0].fire_from = 0;
  windowless.message_faults[0].fire_count = -1;
  fault_injector a(probed, 0), b(windowless, 0);
  for (int i = 0; i < 6; ++i) {
    const auto aa = a.on_send(1, 8);
    const auto bb = b.on_send(1, 8);
    EXPECT_TRUE(bb.corrupt);
    if (aa.corrupt) {
      EXPECT_EQ(aa.corrupt_element, bb.corrupt_element);
      EXPECT_EQ(aa.corrupt_bit, bb.corrupt_bit);
    }
  }
}

TEST(FaultInjection, CorruptPositionsDoNotDependOnOtherEntries) {
  // Delta debugging removes schedule entries; an entry that survives must
  // flip the same bit as before, wherever it sat in the plan.
  fault_plan both;
  both.seed = 5;
  for (const int dst : {1, 2}) {
    fault_plan::message_fault mf;
    mf.dst = dst;
    mf.corrupt_probability = 1.0;
    both.message_faults.push_back(mf);
  }
  fault_plan second_only = both;
  second_only.message_faults.erase(second_only.message_faults.begin());
  fault_injector a(both, 0), b(second_only, 0);
  for (int i = 0; i < 6; ++i) {
    const auto aa = a.on_send(2, 8);
    const auto bb = b.on_send(2, 8);
    ASSERT_TRUE(aa.corrupt && bb.corrupt);
    EXPECT_EQ(aa.corrupt_element, bb.corrupt_element);
    EXPECT_EQ(aa.corrupt_bit, bb.corrupt_bit);
  }
}

}  // namespace
