// Tests for the transport surface (runtime/transport.hpp) and the one
// fabric (runtime/world.hpp): the abort / drain / counter contract, and
// the reliable-delivery edge cases over it (sequence wraparound,
// stale-epoch filtering, duplicate re-acks during reorder healing,
// retransmit jitter).
//
// Registered under the "transport-runtime" label so `ctest -L runtime`
// (and the tsan preset) picks it up alongside the other fabric tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/reliable.hpp"
#include "runtime/transport.hpp"
#include "runtime/world.hpp"

namespace {

using namespace sfp::runtime;
using namespace std::chrono_literals;
using sfp::rng;

// Pump try_recv_any until a message arrives or `deadline` worth
// of waiting elapses. The raw surface is a bounded poll by design; tests
// wrap it with an explicit budget instead of trusting one long wait.
bool recv_within(transport& t, std::chrono::milliseconds deadline,
                 any_message* out) {
  const auto give_up = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < give_up) {
    if (t.try_recv_any(2000us, out)) return true;
  }
  return false;
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
            while (true) (void)t.try_recv_any(10000us, &m);
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
        ASSERT_TRUE(t.try_recv_any(5000ms, &m));
        EXPECT_EQ(m.src, 0);
        EXPECT_EQ(m.payload, (std::vector<double>{7.0}));
        drained = true;
        EXPECT_THROW((void)t.try_recv_any(5000ms, &m), world_aborted);
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
        ASSERT_TRUE(t.try_recv_any(5000ms, &m));
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
                 while (true) (void)t.try_recv_any(10000us, &m);
               }),
               std::runtime_error);
  EXPECT_EQ(w.failed_rank(), 0);
  for (int round = 0; round < 2; ++round) {
    w.run([](transport& t) {
      if (t.rank() == 0) {
        t.send(1, std::vector<double>{42.0});
      } else {
        any_message m;
        ASSERT_TRUE(recv_within(t, 5000ms, &m));
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
      ASSERT_TRUE(recv_within(t, 5000ms, &m));
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
  // through the wrap, with every data frame duplicated so the dedup path is
  // exercised across the boundary too.
  fault_plan plan;
  plan.seed = 41;
  fault_plan::message_fault mf;
  mf.duplicate_probability = 1.0;
  mf.min_payload = wire::header_doubles + 1;  // data frames only
  plan.message_faults.push_back(mf);

  constexpr int kMessages = 8;
  std::mutex stats_mutex;
  reliable_stats receiver_stats;
  run_pair(plan, [&](transport& t, int rank) {
    reliable_options ropts;
    ropts.first_seq = std::numeric_limits<std::uint64_t>::max() - 2;
    ropts.recv_timeout = 8000ms;
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

TEST(ReliableOverFabric, StaleEpochRetransmitIsRejected) {
  // A crafted frame from epoch 3 — a retransmit straggling in from a dead
  // recovery attempt — arrives before the real epoch-4 message with the
  // same sequence number. The epoch filter must drop it; if it leaked
  // through, the dedup would then discard the *real* message.
  run_pair({}, [&](transport& t, int rank) {
    reliable_options ropts;
    ropts.epoch = 4;
    ropts.recv_timeout = 8000ms;
    if (rank == 0) {
      envelope stale;
      stale.type = envelope::kind::data;
      stale.epoch = 3;
      stale.seq = 0;  // same seq the real message will use
      const std::vector<double> image =
          wire::encode(stale, std::vector<double>{666.0});
      t.send(1, image);

      reliable_channel ch(t, ropts);
      ch.send(1, std::vector<double>{42.0});
      ch.fence();
    } else {
      reliable_channel ch(t, ropts);
      const std::vector<double> got = ch.recv(0);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 42.0);  // the stale payload never surfaces
      EXPECT_GE(ch.stats().stale_dropped, 1);
      ch.fence();
    }
  });
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
  reorder.fire_from = 0;
  reorder.fire_count = 1;
  reorder.min_payload = wire::header_doubles + 1;
  plan.message_faults.push_back(reorder);
  fault_plan::message_fault duplicate;
  duplicate.src = 0;
  duplicate.duplicate_probability = 1.0;
  duplicate.fire_from = 1;
  duplicate.fire_count = 1;
  duplicate.min_payload = wire::header_doubles + 1;
  plan.message_faults.push_back(duplicate);

  constexpr int kMessages = 4;
  std::mutex stats_mutex;
  reliable_stats receiver_stats;
  run_pair(plan, [&](transport& t, int rank) {
    reliable_options ropts;
    ropts.recv_timeout = 8000ms;
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
  EXPECT_GE(receiver_stats.out_of_order, 1);
  EXPECT_GE(receiver_stats.dedup_dropped, 1);
  // The re-ack is visible in the accounting: at least one ack beyond the
  // one-per-accepted-delivery baseline.
  EXPECT_GE(receiver_stats.acks_sent,
            receiver_stats.data_received + receiver_stats.dedup_dropped);
}

// ---- retransmit backoff: capped exponential with deterministic jitter -------

/// The channel stretches every capped deadline by a factor in [1, 1.1).
constexpr double kJitter = 0.1;

/// `d` lies in [base, base * (1 + kJitter)).
void expect_jittered(std::chrono::microseconds d,
                     std::chrono::microseconds base) {
  EXPECT_GE(d, base);
  EXPECT_LT(static_cast<double>(d.count()),
            static_cast<double>(base.count()) * (1.0 + kJitter));
}

TEST(RetransmitBackoff, GrowsExponentiallyAndCaps) {
  reliable_options opts;
  opts.retransmit_timeout = 200us;
  opts.max_backoff = 2000us;
  rng r(1);
  expect_jittered(compute_backoff(opts, 0, r), 200us);
  expect_jittered(compute_backoff(opts, 1, r), 400us);
  expect_jittered(compute_backoff(opts, 2, r), 800us);
  expect_jittered(compute_backoff(opts, 3, r), 1600us);
  expect_jittered(compute_backoff(opts, 4, r), 2000us);   // capped
  expect_jittered(compute_backoff(opts, 40, r), 2000us);  // no shift overflow
}

TEST(RetransmitBackoff, JitterStaysWithinTheConfiguredBound) {
  reliable_options opts;
  opts.retransmit_timeout = 200us;
  opts.max_backoff = 2000us;
  rng r(7);
  bool stretched = false;
  for (int attempts = 0; attempts <= 8; ++attempts) {
    const auto base = std::min<std::chrono::microseconds>(
        opts.retransmit_timeout * (1ll << attempts), opts.max_backoff);
    for (int draw = 0; draw < 32; ++draw) {
      const auto d = compute_backoff(opts, attempts, r);
      expect_jittered(d, base);
      if (d > base) stretched = true;
    }
  }
  EXPECT_TRUE(stretched);  // the jitter is live, not a no-op
}

TEST(RetransmitBackoff, JitterIsDeterministicUnderTheSameSeed) {
  reliable_options opts;
  rng a(1234), b(1234), c(5678);
  bool differs_from_other_seed = false;
  for (int i = 0; i < 16; ++i) {
    const auto from_a = compute_backoff(opts, i % 6, a);
    const auto from_b = compute_backoff(opts, i % 6, b);
    const auto from_c = compute_backoff(opts, i % 6, c);
    EXPECT_EQ(from_a, from_b);
    if (from_a != from_c) differs_from_other_seed = true;
  }
  EXPECT_TRUE(differs_from_other_seed);
}

}  // namespace
