// Tests for the transport surface (runtime/transport.hpp) and the one
// fabric (runtime/world.hpp): the abort / drain / counter contract, and
// the reliable-delivery edge cases over it (sequence wraparound, one
// fresh world per attempt, duplicate re-acks during reorder healing).
//
// Registered under the "transport-runtime" label so `ctest -L runtime`
// (and the tsan preset) picks it up alongside the other fabric tests.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/fabric.hpp"
#include "runtime/reliable.hpp"
#include "runtime/transport.hpp"
#include "runtime/world.hpp"

namespace {

using namespace sfp::runtime;
using namespace std::chrono_literals;

/// What a raw any-source receive waits for.
constexpr wait_reason any_source{wait_reason::kind::recv};

/// One raw receive that must produce a message: in these fault-free
/// programs a message is always on its way, so the world never goes
/// quiescent.
bool recv_message(transport& t, any_message* out) {
  return t.recv_or_quiescent(out, any_source) == recv_status::message;
}

// ---- the one fabric ---------------------------------------------------------
//
// Rank threads, inboxes, abort and counters: world.cpp's contract.

TEST(FabricContract, AbortWakesBlockedReceivers) {
  fault_plan plan;
  plan.kills.push_back({.rank = 0, .at_op = 1});
  world w(2, plan);
  std::atomic<int> aborts_seen{0};
  EXPECT_THROW(
      w.run([&](transport& t) {
        if (t.rank() == 0) {
          t.send(1, std::vector<double>{1.0});  // op 1: the kill fires
        } else {
          any_message m;
          try {
            // Blocked forever on a message that will never come; the
            // fabric abort must wake this instead of letting it hang.
            while (true) (void)t.recv_or_quiescent(&m, any_source);
          } catch (const world_aborted& e) {
            EXPECT_EQ(e.failed_rank(), 0);
            ++aborts_seen;
            throw;
          }
        }
      }),
      rank_killed);  // the root cause, not the cascading world_aborted
  EXPECT_TRUE(w.aborted());
  EXPECT_EQ(w.failed_rank(), 0);
  EXPECT_EQ(aborts_seen.load(), 1);
  EXPECT_EQ(w.total_counters().injected_kills, 1);
  EXPECT_EQ(w.total_counters().aborts_observed, 1);
}

TEST(FabricContract, SwallowedKillStillAbortsTheRun) {
  // A killed rank is dead whatever its code does with rank_killed: the
  // kill aborts the world at its op, so the run cannot complete without it.
  fault_plan plan;
  plan.kills.push_back({.rank = 0, .at_op = 1});
  world w(2, plan);
  const auto swallow_the_kill = [](transport& t) {
    if (t.rank() != 0) return;
    try {
      t.send(1, std::vector<double>{1.0});
    } catch (const rank_killed&) {  // the body returns normally
    }
  };
  EXPECT_THROW(w.run(swallow_the_kill), rank_killed);
  EXPECT_EQ(w.failed_rank(), 0);
}

TEST(FabricContract, QueuedMessageIsDeliveredBeforeTheAbort) {
  world w(2);
  std::atomic<bool> sent{false};
  std::atomic<bool> drained{false};
  EXPECT_THROW(
      w.run([&](transport& t) {
        if (t.rank() == 0) {
          t.send(1, std::vector<double>{7.0});
          sent = true;
          throw std::runtime_error("rank 0 died after sending");
        }
        while (!sent.load()) std::this_thread::yield();
        // Give rank 0's throw time to raise the abort.
        std::this_thread::sleep_for(200ms);
        // The abort is already raised, but the message that arrived first
        // still comes out; only the empty inbox reports the abort.
        any_message m;
        ASSERT_TRUE(recv_message(t, &m));
        EXPECT_EQ(m.src, 0);
        EXPECT_EQ(m.payload, (std::vector<double>{7.0}));
        drained = true;
        EXPECT_THROW((void)t.recv_or_quiescent(&m, any_source), world_aborted);
      }),
      std::runtime_error);
  EXPECT_TRUE(drained.load());
  EXPECT_EQ(w.failed_rank(), 0);
  EXPECT_EQ(w.counters(1).messages_received, 1);
  EXPECT_EQ(w.counters(1).aborts_observed, 1);
}

TEST(FabricContract, LowestSourceDrainsFirst) {
  constexpr int kRanks = 4;
  world w(kRanks);
  std::atomic<int> senders_done{0};
  w.run([&](transport& t) {
    if (t.rank() != 0) {
      // Highest rank sends first, so arrival order is not source order.
      while (senders_done.load() != kRanks - 1 - t.rank())
        std::this_thread::yield();
      for (int i = 0; i < 2; ++i)
        t.send(0, std::vector<double>{10.0 * t.rank() + i});
      ++senders_done;
      return;
    }
    // A send lands in the inbox before it returns, so every message is
    // queued once the last sender is done.
    while (senders_done.load() != kRanks - 1) std::this_thread::yield();
    // Per source FIFO, sources ascending.
    for (int src = 1; src < kRanks; ++src) {
      for (int i = 0; i < 2; ++i) {
        any_message m;
        ASSERT_TRUE(recv_message(t, &m));
        EXPECT_EQ(m.src, src);
        EXPECT_EQ(m.payload, (std::vector<double>{10.0 * src + i}));
      }
    }
  });
  EXPECT_EQ(w.counters(0).messages_received, 2 * (kRanks - 1));
}

TEST(FabricContract, ReusableAcrossRuns) {
  world w(2);
  EXPECT_THROW(w.run([](transport& t) {
                 if (t.rank() == 0) throw std::runtime_error("once");
                 any_message m;
                 while (true) (void)t.recv_or_quiescent(&m, any_source);
               }),
               std::runtime_error);
  EXPECT_EQ(w.failed_rank(), 0);
  for (int round = 0; round < 2; ++round) {
    w.run([](transport& t) {
      if (t.rank() == 0) {
        t.send(1, std::vector<double>{42.0});
      } else {
        any_message m;
        ASSERT_TRUE(recv_message(t, &m));
        EXPECT_EQ(m.payload.at(0), 42.0);
      }
    });
    // run() resets failure state and counters: each round reports only its
    // own traffic.
    EXPECT_FALSE(w.aborted());
    EXPECT_EQ(w.failed_rank(), -1);
    EXPECT_EQ(w.total_counters().messages_sent, 1);
    EXPECT_EQ(w.total_counters().aborts_observed, 0);
  }
}

TEST(FabricContract, RawDatagramSurfaceFeedsTheCounters) {
  // A fault-free raw program: every rank sends r + 1 two-double messages to
  // every peer, then drains its inbox. Counters are a function of the
  // program alone.
  static constexpr int kRanks = 3;
  const auto program = [](transport& t) {
    ASSERT_EQ(t.size(), kRanks);
    for (int dst = 0; dst < kRanks; ++dst) {
      if (dst == t.rank()) continue;
      for (int i = 0; i <= t.rank(); ++i)
        t.send(dst, std::vector<double>{1.5 * t.rank(), 2.5 + i});
    }
    std::vector<int> next(kRanks, 0);
    int expected = 0;
    for (int src = 0; src < kRanks; ++src)
      if (src != t.rank()) expected += src + 1;
    for (int k = 0; k < expected; ++k) {
      any_message m;
      ASSERT_TRUE(recv_message(t, &m));
      int& i = next[static_cast<std::size_t>(m.src)];
      EXPECT_EQ(m.payload, (std::vector<double>{1.5 * m.src, 2.5 + i}));
      ++i;
    }
  };
  world w(kRanks);
  w.run(program);
  for (int r = 0; r < kRanks; ++r) {
    const rank_counters& c = w.counters(r);
    EXPECT_EQ(c.messages_sent, (kRanks - 1) * (r + 1)) << "rank " << r;
    EXPECT_EQ(c.doubles_sent, 2 * (kRanks - 1) * (r + 1)) << "rank " << r;
    EXPECT_EQ(c.messages_received, kRanks * (kRanks + 1) / 2 - (r + 1))
        << "rank " << r;
    EXPECT_EQ(c.aborts_observed, 0);
  }
  EXPECT_EQ(w.total_counters().messages_received,
            w.total_counters().messages_sent);
}

// ---- reliable edge cases -----------------------------------------------------

// Run `body` once per rank on a two-rank world under `faults`.
void run_pair(const fault_plan& faults,
              const std::function<void(transport&, int)>& body) {
  world w(2, faults);
  w.run([&](transport& t) { body(t, t.rank()); });
}

TEST(ReliableOverFabric, SequenceNumbersWrapAroundCleanly) {
  // Start every stream three short of UINT64_MAX and push eight messages
  // through the wrap, with every message duplicated so the dedup path is
  // exercised across the boundary too.
  fault_plan plan;
  plan.seed = 41;
  fault_plan::message_fault mf;
  mf.duplicate_probability = 1.0;
  plan.message_faults.push_back(mf);

  constexpr int kMessages = 8;
  std::mutex stats_mutex;
  reliable_stats receiver_stats;
  run_pair(plan, [&](transport& t, int rank) {
    reliable_options ropts;
    ropts.first_seq = std::numeric_limits<std::uint64_t>::max() - 2;
    reliable_channel ch(t, ropts);
    if (rank == 0) {
      for (int i = 0; i < kMessages; ++i)
        ch.send(1, std::vector<double>{static_cast<double>(i)});
      ch.fence();
    } else {
      for (int i = 0; i < kMessages; ++i) {
        const std::vector<double> got = ch.recv(0);
        ASSERT_EQ(got.size(), 1u);
        ASSERT_EQ(got[0], static_cast<double>(i));
      }
      ch.fence();
      std::lock_guard<std::mutex> lock(stats_mutex);
      receiver_stats = ch.stats();
    }
  });
  EXPECT_EQ(receiver_stats.data_received, kMessages + /* fence */ 1);
  EXPECT_GE(receiver_stats.dedup_dropped, kMessages);
}

TEST(ReliableOverFabric, FrameOfAFailedAttemptNeverReachesTheNext) {
  // Every attempt runs on a fresh world. In attempt 0, rank 0 sends rank 1
  // a frame holding the attempt number and dies at its next frame, while
  // rank 1 still waits on rank 2, which waits on that next frame. Rank 1's
  // first recv(0) in attempt 1, on the two survivors, must return attempt
  // 1's payload: attempt 0's frame is gone with its world.
  resilience_options opts;
  opts.faults.kills.push_back({.rank = 0, .at_op = 2});
  std::atomic<int> attempt{0};
  std::vector<double> got;
  resilience_report report;
  const std::exception_ptr error = run_resilient(
      3, opts,
      [&](reliable_channel& ch, int) {
        const std::vector<double> mine{static_cast<double>(attempt.load())};
        const bool first_attempt = ch.size() == 3;
        if (ch.rank() == 0) {
          ch.send(1, mine);
          if (first_attempt) ch.send(2, mine);  // frame 2: the kill
        } else if (ch.rank() == 1) {
          if (first_attempt) (void)ch.recv(2);  // never arrives
          got = ch.recv(0);
        } else {
          ch.send(1, ch.recv(0));
        }
      },
      [&](const std::set<int>&) { ++attempt; }, report);
  EXPECT_FALSE(error);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, std::vector<int>{0});
  EXPECT_EQ(got, std::vector<double>{1.0});
}

TEST(ReliableOverFabric, DuplicatesAreReAckedDuringReorderHealing) {
  // Frame 0 is held back past frame 1 (reorder), and frame 1 is delivered
  // twice (duplicate). While the receiver is parked waiting for seq 0 it
  // must re-ack the duplicate of seq 1 instead of staying silent — a
  // silent dedup would leave the sender retransmitting into the gap.
  fault_plan plan;
  plan.seed = 43;
  fault_plan::message_fault reorder;
  reorder.src = 0;
  reorder.reorder_probability = 1.0;
  reorder.frame = 0;
  plan.message_faults.push_back(reorder);
  fault_plan::message_fault duplicate;
  duplicate.src = 0;
  duplicate.duplicate_probability = 1.0;
  duplicate.frame = 1;
  plan.message_faults.push_back(duplicate);

  constexpr int kMessages = 4;
  std::mutex stats_mutex;
  reliable_stats receiver_stats;
  run_pair(plan, [&](transport& t, int rank) {
    reliable_channel ch(t);
    if (rank == 0) {
      for (int i = 0; i < kMessages; ++i)
        ch.send(1, std::vector<double>{static_cast<double>(i)});
      ch.fence();
    } else {
      for (int i = 0; i < kMessages; ++i) {
        const std::vector<double> got = ch.recv(0);
        ASSERT_EQ(got.size(), 1u);
        ASSERT_EQ(got[0], static_cast<double>(i));
      }
      ch.fence();
      std::lock_guard<std::mutex> lock(stats_mutex);
      receiver_stats = ch.stats();
    }
  });
  EXPECT_GE(receiver_stats.out_of_order, 1);
  EXPECT_GE(receiver_stats.dedup_dropped, 1);
  // The re-ack is visible in the accounting: at least one ack beyond the
  // one-per-accepted-delivery baseline.
  EXPECT_GE(receiver_stats.acks_sent,
            receiver_stats.data_received + receiver_stats.dedup_dropped);
}

}  // namespace
