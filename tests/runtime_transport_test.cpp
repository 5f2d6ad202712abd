// Tests for the transport surface (runtime/transport.hpp), the one fabric
// (runtime/world.hpp) over both wires, and the socket wire
// (runtime/socket_transport.hpp): the shared abort / drain / counter
// contract, loopback TCP with framing / heartbeats / reconnect, byte-stream
// fault injection, and the reliable-delivery edge cases that must behave
// identically over every backend (sequence wraparound, stale-epoch
// filtering, duplicate re-acks during reorder healing, retransmit jitter).
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

#include "runtime/fabric.hpp"
#include "runtime/reliable.hpp"
#include "runtime/socket_transport.hpp"
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

// ---- shared vocabulary ------------------------------------------------------

TEST(TransportVocabulary, BackendNamesRoundTrip) {
  EXPECT_STREQ(to_string(transport_backend::inproc), "inproc");
  EXPECT_STREQ(to_string(transport_backend::socket), "socket");
}

TEST(TransportVocabulary, StreamFaultKindNames) {
  EXPECT_STREQ(to_string(stream_fault::kind::truncate), "truncate");
  EXPECT_STREQ(to_string(stream_fault::kind::split), "split");
  EXPECT_STREQ(to_string(stream_fault::kind::reset), "reset");
  EXPECT_STREQ(to_string(stream_fault::kind::stall), "stall");
}

// ---- the one fabric, over both wires ----------------------------------------
//
// Rank threads, inboxes, abort and counters are written once in world.cpp;
// the backend picks only the wire. This suite pins that shared core's
// contract on both wires.

class FabricContract : public ::testing::TestWithParam<transport_backend> {
 protected:
  fabric_options options(fault_plan faults = {}) const {
    fabric_options opts;
    opts.backend = GetParam();
    opts.faults = std::move(faults);
    return opts;
  }
};

// Every rank_counters field, for whole-struct comparison.
std::vector<std::int64_t> fields(const rank_counters& c) {
  return {c.messages_sent,        c.messages_received,
          c.doubles_sent,         c.doubles_received,
          c.aborts_observed,      c.injected_kills,
          c.injected_drops,       c.injected_delays,
          c.injected_duplicates,  c.injected_corruptions,
          c.injected_truncations, c.injected_reorders};
}

// How long a receiver waits before polling when a test needs messages
// already sitting in its inbox: the socket wire delivers asynchronously.
constexpr auto kSettle = 200ms;

TEST_P(FabricContract, AbortWakesBlockedReceivers) {
  fault_plan plan;
  plan.kills.push_back({.rank = 0, .at_op = 1});
  world w(2, options(plan));
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

TEST_P(FabricContract, QueuedMessageIsDeliveredBeforeTheAbort) {
  world w(2, options());
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
        std::this_thread::sleep_for(kSettle);
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

TEST_P(FabricContract, LowestSourceDrainsFirst) {
  constexpr int kRanks = 4;
  world w(kRanks, options());
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
    while (senders_done.load() != kRanks - 1) std::this_thread::yield();
    std::this_thread::sleep_for(kSettle);
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

TEST_P(FabricContract, ReusableAcrossRuns) {
  world w(2, options());
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

TEST_P(FabricContract, RawDatagramSurfaceFeedsTheCounters) {
  // A fault-free raw program: every rank sends r + 1 two-double messages to
  // every peer, then drains its inbox. Counters are a function of the
  // program alone, so both wires must report identical ones.
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
  world w(kRanks, options());
  w.run(program);
  world reference(kRanks);  // the in-process wire
  reference.run(program);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(fields(w.counters(r)), fields(reference.counters(r)))
        << "rank " << r;
    EXPECT_EQ(w.counters(r).messages_sent, (kRanks - 1) * (r + 1));
    EXPECT_EQ(w.counters(r).doubles_sent, 2 * (kRanks - 1) * (r + 1));
  }
  EXPECT_EQ(w.total_counters().messages_received,
            w.total_counters().messages_sent);
}

INSTANTIATE_TEST_SUITE_P(Backends, FabricContract,
                         ::testing::Values(transport_backend::inproc,
                                           transport_backend::socket),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// ---- socket wire: basics ----------------------------------------------------

fabric_options socket_options() {
  fabric_options opts;
  opts.backend = transport_backend::socket;
  return opts;
}

TEST(SocketFabric, EchoAcrossTwoRanks) {
  world fab(2, socket_options());
  ASSERT_EQ(fab.size(), 2);
  fab.run([](transport& t) {
    ASSERT_EQ(t.size(), 2);
    if (t.rank() == 0) {
      t.send(1, std::vector<double>{3.25, -1.5, 0.0});
      any_message m;
      ASSERT_TRUE(recv_within(t, 5000ms, &m));
      EXPECT_EQ(m.src, 1);
      EXPECT_EQ(m.payload, (std::vector<double>{3.25, -1.5, 0.0}));
    } else {
      any_message m;
      ASSERT_TRUE(recv_within(t, 5000ms, &m));
      EXPECT_EQ(m.src, 0);
      t.send(0, m.payload);
    }
  });
  EXPECT_FALSE(fab.aborted());
  EXPECT_EQ(fab.total_counters().messages_sent, 2);
  EXPECT_EQ(fab.total_counters().messages_received, 2);
  const socket_stats stats = fab.socket_totals();
  EXPECT_GE(stats.connects, 2);  // one link per direction
  EXPECT_EQ(stats.reconnects, 0);
  EXPECT_GE(stats.frames_sent, 2);
  EXPECT_GE(stats.frames_received, 2);
  EXPECT_EQ(stats.frames_rejected, 0);
  EXPECT_EQ(stats.send_failures, 0);
}

TEST(SocketFabric, LargePayloadSurvivesPartialReadsAndWrites) {
  // 512 KiB of payload does not fit a socket buffer: the framed writer and
  // reader must handle short writes and short reads without tearing.
  static constexpr std::size_t kDoubles = std::size_t{1} << 16;
  world fab(2, socket_options());
  fab.run([](transport& t) {
    if (t.rank() == 0) {
      std::vector<double> payload(kDoubles);
      for (std::size_t i = 0; i < kDoubles; ++i)
        payload[i] = 0.5 * static_cast<double>(i) - 7.0;
      t.send(1, payload);
      // Wait for the ack-ish reply so the fabric is not torn down while the
      // big frame is still in flight.
      any_message m;
      ASSERT_TRUE(recv_within(t, 10000ms, &m));
    } else {
      any_message m;
      ASSERT_TRUE(recv_within(t, 10000ms, &m));
      ASSERT_EQ(m.payload.size(), kDoubles);
      bool intact = true;
      for (std::size_t i = 0; i < kDoubles; ++i) {
        if (m.payload[i] != 0.5 * static_cast<double>(i) - 7.0) {
          intact = false;
          break;
        }
      }
      EXPECT_TRUE(intact);
      t.send(0, std::vector<double>{1.0});
    }
  });
  EXPECT_FALSE(fab.aborted());
  EXPECT_EQ(fab.socket_totals().frames_rejected, 0);
}

// ---- socket wire: health checking -----------------------------------------

TEST(SocketFabric, HeartbeatsKeepIdleLinksAlive) {
  fabric_options opts = socket_options();
  opts.heartbeat_interval = 5ms;
  opts.heartbeat_timeout = 150ms;
  world fab(2, opts);
  fab.run([](transport& t) {
    if (t.rank() == 0) {
      t.send(1, std::vector<double>{1.0});
      // Idle for twice the death deadline: only heartbeats keep the link up.
      std::this_thread::sleep_for(400ms);
      t.send(1, std::vector<double>{2.0});
    } else {
      any_message m;
      ASSERT_TRUE(recv_within(t, 5000ms, &m));
      EXPECT_EQ(m.payload.at(0), 1.0);
      ASSERT_TRUE(recv_within(t, 5000ms, &m));
      EXPECT_EQ(m.payload.at(0), 2.0);
    }
  });
  EXPECT_FALSE(fab.aborted());
  const socket_stats stats = fab.socket_totals();
  EXPECT_GT(stats.heartbeats_sent, 0);
  EXPECT_EQ(stats.reconnects, 0);
  EXPECT_EQ(stats.send_failures, 0);
}

TEST(SocketFabric, SilentLinkDiesAndReconnectsWithEpochHandshake) {
  // Heartbeats effectively disabled: after the idle gap the receiver
  // declares the link dead and closes it. The sender's next write fails,
  // the reliable layer retransmits, and the redial runs the epoch
  // handshake — the message still arrives exactly once.
  fabric_options opts = socket_options();
  opts.heartbeat_interval = 10000ms;  // never fires inside this test
  opts.heartbeat_timeout = 100ms;
  world fab(2, opts);
  std::mutex stats_mutex;
  reliable_stats reliable_sum;
  fab.run([&](transport& t) {
    reliable_options ropts;
    ropts.retransmit_timeout = 5000us;
    ropts.max_backoff = 20000us;
    ropts.recv_timeout = 8000ms;
    reliable_channel ch(t, ropts);
    if (t.rank() == 0) {
      ch.send(1, std::vector<double>{1.0});
      ch.flush();
      std::this_thread::sleep_for(400ms);  // both links go silent and die
      ch.send(1, std::vector<double>{2.0});
      ch.flush();
      ch.fence();
    } else {
      EXPECT_EQ(ch.recv(0).at(0), 1.0);
      EXPECT_EQ(ch.recv(0).at(0), 2.0);
      ch.flush();
      ch.fence();
    }
    std::lock_guard<std::mutex> lock(stats_mutex);
    reliable_sum += ch.stats();
  });
  EXPECT_FALSE(fab.aborted());
  const socket_stats stats = fab.socket_totals();
  EXPECT_GE(stats.reconnects, 1);
  EXPECT_GE(stats.send_failures, 1);
  EXPECT_EQ(reliable_sum.data_received, 2 + /* fence rounds */ 2);
}

// ---- socket wire: byte-stream fault injection -----------------------------

TEST(SocketFabric, StreamFaultsHealUnderReliableDelivery) {
  // One fault of every kind, pinned to specific data frames on specific
  // links. Truncate and reset poison a connection; split and stall only
  // delay bytes. Under the reliable layer all of it heals in order.
  constexpr int kMessages = 12;
  fabric_options opts = socket_options();
  opts.stall_duration = 2000us;
  opts.stream_faults.faults = {
      {.what = stream_fault::kind::truncate, .src = 0, .dst = 1, .nth = 0},
      {.what = stream_fault::kind::reset, .src = 0, .dst = 1, .nth = 3},
      {.what = stream_fault::kind::split, .src = 1, .dst = 0, .nth = 1},
      {.what = stream_fault::kind::stall, .src = 1, .dst = 0, .nth = 4},
  };
  world fab(2, opts);
  std::mutex stats_mutex;
  reliable_stats reliable_sum;
  fab.run([&](transport& t) {
    reliable_options ropts;
    ropts.retransmit_timeout = 5000us;
    ropts.max_backoff = 20000us;
    ropts.recv_timeout = 8000ms;
    reliable_channel ch(t, ropts);
    const int peer = 1 - t.rank();
    for (int i = 0; i < kMessages; ++i) {
      std::vector<double> payload(8);
      for (std::size_t j = 0; j < payload.size(); ++j)
        payload[j] = 10.0 * t.rank() + i + 0.125 * static_cast<double>(j);
      ch.send(peer, payload);
    }
    for (int i = 0; i < kMessages; ++i) {
      const std::vector<double> got = ch.recv(peer);
      ASSERT_EQ(got.size(), 8u);
      for (std::size_t j = 0; j < got.size(); ++j)
        ASSERT_EQ(got[j], 10.0 * peer + i + 0.125 * static_cast<double>(j));
    }
    ch.flush();
    ch.fence();
    std::lock_guard<std::mutex> lock(stats_mutex);
    reliable_sum += ch.stats();
  });
  EXPECT_FALSE(fab.aborted());
  const socket_stats stats = fab.socket_totals();
  EXPECT_EQ(stats.injected_stream_faults, 4);
  EXPECT_GE(stats.frames_rejected, 1);  // the truncated frame
  EXPECT_GE(stats.reconnects, 1);       // poisoned links redialed
  EXPECT_GT(reliable_sum.retransmits, 0);
  EXPECT_EQ(reliable_sum.data_received,
            2 * kMessages + /* fence rounds */ 2);
}

// ---- reliable edge cases, identical over every backend ----------------------

class ReliableOverBackend
    : public ::testing::TestWithParam<transport_backend> {
 protected:
  // Run `body` once per rank on a two-rank fabric of the parameterized
  // backend, with the same message-level fault plan either way.
  void run_pair(const fault_plan& faults,
                const std::function<void(transport&, int)>& body) {
    fabric_options opts;
    opts.backend = GetParam();
    opts.faults = faults;
    run_fabric(2, opts, [&](transport& t) { body(t, t.rank()); });
  }
};

TEST_P(ReliableOverBackend, SequenceNumbersWrapAroundCleanly) {
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
      ch.flush();
      ch.fence();
    } else {
      for (int i = 0; i < kMessages; ++i) {
        const std::vector<double> got = ch.recv(0);
        ASSERT_EQ(got.size(), 1u);
        ASSERT_EQ(got[0], static_cast<double>(i));
      }
      ch.flush();
      ch.fence();
      std::lock_guard<std::mutex> lock(stats_mutex);
      receiver_stats = ch.stats();
    }
  });
  EXPECT_EQ(receiver_stats.data_received, kMessages + /* fence */ 1);
  EXPECT_GE(receiver_stats.dedup_dropped, kMessages);
}

TEST_P(ReliableOverBackend, StaleEpochRetransmitIsRejected) {
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
      ch.flush();
      ch.fence();
    } else {
      reliable_channel ch(t, ropts);
      const std::vector<double> got = ch.recv(0);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 42.0);  // the stale payload never surfaces
      EXPECT_GE(ch.stats().stale_dropped, 1);
      ch.flush();
      ch.fence();
    }
  });
}

TEST_P(ReliableOverBackend, DuplicatesAreReAckedDuringReorderHealing) {
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
      ch.flush();
      ch.fence();
    } else {
      for (int i = 0; i < kMessages; ++i) {
        const std::vector<double> got = ch.recv(0);
        ASSERT_EQ(got.size(), 1u);
        ASSERT_EQ(got[0], static_cast<double>(i));
      }
      ch.flush();
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

INSTANTIATE_TEST_SUITE_P(Backends, ReliableOverBackend,
                         ::testing::Values(transport_backend::inproc,
                                           transport_backend::socket),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

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
