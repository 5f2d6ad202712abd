// Tests for the reliable-delivery transport: CRC32C, the wire envelope,
// exactly-once in-order delivery under drop/duplicate/corrupt/truncate/
// reorder injection, the fence precondition on the shared per-pair stream,
// quiescent-round resends and their exhaustion, and the fault-injection
// extensions (payload corruption, truncation, reordering) it heals.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/fabric.hpp"
#include "runtime/fault.hpp"
#include "runtime/reliable.hpp"
#include "runtime/world.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp::runtime;
using namespace std::chrono_literals;

/// What a raw any-source receive waits for.
constexpr wait_reason any_source{wait_reason::kind::recv};

/// Blocking raw receive of the next message, from any source.
any_message recv_any(transport& t) {
  any_message m;
  while (t.recv_or_quiescent(&m, any_source) == recv_status::quiescent) {
  }
  return m;
}

// ---- crc32c -----------------------------------------------------------------

TEST(Crc32c, MatchesKnownVector) {
  // RFC 3720 appendix test vector: CRC32C("123456789") = 0xe3069283.
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xe3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c(nullptr, 0), 0u); }

/// Bytewise reference CRC32C: one bit at a time, no tables — the
/// definition the sliced implementation must reproduce exactly.
std::uint32_t crc32c_reference(const unsigned char* p, std::size_t n,
                               std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1) ? 0x82f63b78u ^ (crc >> 1) : crc >> 1;
  }
  return ~crc;
}

TEST(Crc32c, SlicedMatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-64 cover every split between the 8-byte body and the byte
  // tail; 10,007 (prime) is a long unaligned run. Each is checked at
  // several starting offsets, and chained through a nonzero seed.
  std::vector<unsigned char> buf(10007 + 16);
  std::uint32_t x = 0x12345678u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(10007);
  for (const std::size_t offset : {0u, 1u, 3u, 5u, 7u, 8u, 13u}) {
    for (const std::size_t n : lengths) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc32c(p, n), crc32c_reference(p, n))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(crc32c(p, n, 0xdeadbeefu),
                crc32c_reference(p, n, 0xdeadbeefu))
          << "seeded, offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32c, SingleBitFlipChangesChecksum) {
  std::vector<double> payload = {1.0, 2.0, 3.0};
  const std::uint32_t clean =
      crc32c(payload.data(), payload.size() * sizeof(double));
  std::uint64_t bits;
  std::memcpy(&bits, &payload[1], sizeof(bits));
  bits ^= 1ull << 17;
  std::memcpy(&payload[1], &bits, sizeof(bits));
  EXPECT_NE(clean, crc32c(payload.data(), payload.size() * sizeof(double)));
}

// ---- wire envelope ----------------------------------------------------------

TEST(WireEnvelope, RoundTripsHeaderAndPayload) {
  envelope h;
  h.type = envelope::kind::data;
  h.epoch = 7;
  h.seq = 123456;
  const std::vector<double> payload = {3.14, -2.71, 0.0, 1e300};
  const std::vector<double> image = wire::encode(h, payload);
  ASSERT_EQ(image.size(), wire::header_doubles + payload.size());

  envelope parsed;
  std::vector<double> body;
  ASSERT_TRUE(wire::decode(image, /*verify_checksum=*/true, &parsed, &body));
  EXPECT_EQ(parsed.type, envelope::kind::data);
  EXPECT_EQ(parsed.epoch, 7u);
  EXPECT_EQ(parsed.seq, 123456u);
  EXPECT_EQ(body, payload);
}

TEST(WireEnvelope, FenceTokenIsAHeaderOnlyFrame) {
  envelope h;
  h.type = envelope::kind::fence;
  h.seq = 3;
  const std::vector<double> image = wire::encode(h, {});
  ASSERT_EQ(image.size(), wire::header_doubles);
  envelope parsed;
  std::vector<double> body;
  ASSERT_TRUE(wire::decode(image, true, &parsed, &body));
  EXPECT_EQ(parsed.type, envelope::kind::fence);
  EXPECT_EQ(parsed.seq, 3u);
  EXPECT_TRUE(body.empty());
}

TEST(WireEnvelope, DetectsPayloadBitFlip) {
  envelope h;
  std::vector<double> image = wire::encode(h, {{1.0, 2.0}});
  std::uint64_t bits;
  std::memcpy(&bits, &image[wire::header_doubles], sizeof(bits));
  bits ^= 1ull << 3;
  std::memcpy(&image[wire::header_doubles], &bits, sizeof(bits));
  envelope parsed;
  std::vector<double> body;
  EXPECT_FALSE(wire::decode(image, true, &parsed, &body));
  // The test hook that the chaos soak must catch: verification off lets the
  // mangled payload through.
  EXPECT_TRUE(wire::decode(image, /*verify_checksum=*/false, &parsed, &body));
}

TEST(WireEnvelope, DetectsHeaderBitFlip) {
  envelope h;
  h.seq = 9;
  std::vector<double> image = wire::encode(h, {{5.0}});
  std::uint64_t bits;
  std::memcpy(&bits, &image[2], sizeof(bits));  // the seq word
  bits ^= 1ull << 0;
  std::memcpy(&image[2], &bits, sizeof(bits));
  envelope parsed;
  std::vector<double> body;
  EXPECT_FALSE(wire::decode(image, true, &parsed, &body));
}

TEST(WireEnvelope, DetectsTruncationEvenWithoutChecksum) {
  envelope h;
  std::vector<double> image = wire::encode(h, {{1.0, 2.0, 3.0}});
  image.resize(image.size() - 2);  // lose trailing payload
  envelope parsed;
  std::vector<double> body;
  EXPECT_FALSE(wire::decode(image, false, &parsed, &body));
  image.resize(2);  // cut into the header itself
  EXPECT_FALSE(wire::decode(image, false, &parsed, &body));
}

TEST(WireEnvelope, RejectsGarbageAndWrongMagic) {
  envelope parsed;
  std::vector<double> body;
  EXPECT_FALSE(wire::decode(std::vector<double>{1.0, 2.0}, true, &parsed, &body));
  EXPECT_FALSE(wire::decode(std::vector<double>(wire::header_doubles, 0.25),
                           true, &parsed, &body));
}

// ---- fault-injection extensions --------------------------------------------

TEST(FaultInjection, CorruptionDrawsAreDeterministic) {
  fault_plan plan;
  plan.seed = 99;
  fault_plan::message_fault mf;
  mf.corrupt_probability = 0.5;
  mf.truncate_probability = 0.5;
  mf.reorder_probability = 0.5;
  plan.message_faults.push_back(mf);

  fault_injector a(plan, 3);
  fault_injector b(plan, 3);
  for (int i = 0; i < 64; ++i) {
    const auto x = a.on_send(0, 16);
    const auto y = b.on_send(0, 16);
    EXPECT_EQ(x.corrupt, y.corrupt);
    EXPECT_EQ(x.corrupt_element, y.corrupt_element);
    EXPECT_EQ(x.corrupt_bit, y.corrupt_bit);
    EXPECT_EQ(x.truncate, y.truncate);
    EXPECT_EQ(x.truncate_to, y.truncate_to);
    EXPECT_EQ(x.reorder, y.reorder);
  }
}

TEST(FaultInjection, RawRecvSeesCorruptedPayloadAndCountersTrack) {
  fault_plan plan;
  plan.seed = 5;
  fault_plan::message_fault mf;
  mf.src = 0;
  mf.corrupt_probability = 1.0;
  plan.message_faults.push_back(mf);

  world w(2, plan);
  w.run([](transport& c) {
    const std::vector<double> payload(8, 1.0);
    if (c.rank() == 0) {
      c.send(1, payload);
    } else {
      const std::vector<double> got = recv_any(c).payload;
      ASSERT_EQ(got.size(), payload.size());
      EXPECT_NE(got, payload);  // exactly one bit differs somewhere
    }
  });
  EXPECT_EQ(w.total_counters().injected_corruptions, 1);
}

TEST(FaultInjection, TruncationShortensRawPayload) {
  fault_plan plan;
  plan.seed = 11;
  fault_plan::message_fault mf;
  mf.truncate_probability = 1.0;
  plan.message_faults.push_back(mf);

  world w(2, plan);
  w.run([](transport& c) {
    if (c.rank() == 0) {
      c.send(1, std::vector<double>(10, 2.0));
    } else {
      EXPECT_LT(recv_any(c).payload.size(), 10u);
    }
  });
  EXPECT_EQ(w.total_counters().injected_truncations, 1);
}

TEST(FaultInjection, ReorderSwapsAdjacentSends) {
  fault_plan plan;
  plan.seed = 2;
  fault_plan::message_fault mf;
  mf.reorder_probability = 1.0;  // every send swaps with its successor
  plan.message_faults.push_back(mf);

  world w(2, plan);
  w.run([](transport& c) {
    if (c.rank() == 0) {
      c.send(1, std::vector<double>{1.0});
      c.send(1, std::vector<double>{2.0});
    } else {
      EXPECT_EQ(recv_any(c).payload.at(0), 2.0);
      EXPECT_EQ(recv_any(c).payload.at(0), 1.0);
    }
  });
  EXPECT_EQ(w.total_counters().injected_reorders, 1);
}

TEST(FaultInjection, ReorderIsReleasedOnlyByAMatchingSend) {
  // A send the entry's min_payload filters out (an ack-sized frame) passes
  // the stashed message by; the next matching send is its swap partner.
  fault_plan plan;
  plan.seed = 2;
  fault_plan::message_fault mf;
  mf.reorder_probability = 1.0;
  mf.fire_count = 1;
  mf.min_payload = 2;
  plan.message_faults.push_back(mf);

  world w(2, plan);
  w.run([](transport& c) {
    if (c.rank() == 0) {
      c.send(1, std::vector<double>{1.0, 1.0});  // stashed
      c.send(1, std::vector<double>{9.0});       // filtered out: no release
      c.send(1, std::vector<double>{2.0, 2.0});  // swap partner
    } else {
      EXPECT_EQ(recv_any(c).payload.at(0), 9.0);
      EXPECT_EQ(recv_any(c).payload.at(0), 2.0);
      EXPECT_EQ(recv_any(c).payload.at(0), 1.0);
    }
  });
  EXPECT_EQ(w.total_counters().injected_reorders, 1);
}

// ---- reliable channel: clean fabric ----------------------------------------

TEST(ReliableChannel, DeliversInOrderOnCleanFabric) {
  world w(3);
  w.run([](transport& c) {
    reliable_channel ch(c);
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    for (int i = 0; i < 5; ++i)
      ch.send(right, std::vector<double>{static_cast<double>(i)});
    for (int i = 0; i < 5; ++i) {
      const std::vector<double> got = ch.recv(left);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], static_cast<double>(i));
    }
    ch.fence();
  });
  EXPECT_FALSE(w.aborted());
}

// Fence tokens share each pair's one ordered stream with the data, so a
// fence is only well-defined once a rank has received everything sent to
// it before its peers fenced. Either side of a broken precondition is a
// contract error naming the stream, never a silent reorder.
TEST(ReliableChannel, FenceMeetingUnreceivedDataIsAContractError) {
  world w(2);
  EXPECT_THROW(w.run([](transport& c) {
                 reliable_channel ch(c);
                 if (c.rank() == 0) ch.send(1, std::vector<double>{1.0});
                 ch.fence();  // rank 1 never received the 1.0
               }),
               sfp::contract_error);
  EXPECT_EQ(w.failed_rank(), 1);
}

TEST(ReliableChannel, RecvMeetingAFenceTokenIsAContractError) {
  world w(2);
  try {
    w.run([](transport& c) {
      reliable_channel ch(c);
      if (c.rank() == 0) {
        ch.fence();
      } else {
        (void)ch.recv(0);  // rank 0 sent nothing before its fence token
      }
    });
    FAIL() << "recv must reject the fence token";
  } catch (const sfp::contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("stream 0 -> 1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(w.failed_rank(), 1);
}

// ---- reliable channel: healing injected faults ------------------------------

void exchange_under(const fault_plan& plan, reliable_stats* out_stats) {
  constexpr int kMessages = 20;
  constexpr int kDoubles = 6;
  world w(4, plan);
  std::atomic<long> healed_checks{0};
  reliable_stats stats_sum;
  std::mutex stats_mutex;
  w.run([&](transport& c) {
    reliable_channel ch(c);
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    for (int i = 0; i < kMessages; ++i) {
      std::vector<double> payload(kDoubles);
      for (int j = 0; j < kDoubles; ++j)
        payload[static_cast<std::size_t>(j)] = 100.0 * c.rank() + i + 0.25 * j;
      ch.send(right, payload);
    }
    for (int i = 0; i < kMessages; ++i) {
      const std::vector<double> got = ch.recv(left);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kDoubles));
      for (int j = 0; j < kDoubles; ++j)
        ASSERT_EQ(got[static_cast<std::size_t>(j)],
                  100.0 * left + i + 0.25 * j);
      ++healed_checks;
    }
    ch.fence();
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats_sum += ch.stats();
  });
  EXPECT_FALSE(w.aborted());
  EXPECT_EQ(healed_checks.load(), 4 * kMessages);
  if (out_stats) *out_stats = stats_sum;
}

TEST(ReliableChannel, HealsDrops) {
  fault_plan plan;
  plan.seed = 31;
  fault_plan::message_fault mf;
  mf.drop_probability = 0.25;
  plan.message_faults.push_back(mf);
  reliable_stats stats;
  exchange_under(plan, &stats);
  EXPECT_GT(stats.retransmits, 0);
}

TEST(ReliableChannel, HealsCorruptionAndTruncation) {
  fault_plan plan;
  plan.seed = 32;
  fault_plan::message_fault mf;
  mf.corrupt_probability = 0.2;
  mf.truncate_probability = 0.1;
  plan.message_faults.push_back(mf);
  reliable_stats stats;
  exchange_under(plan, &stats);
  EXPECT_GT(stats.corruption_detected, 0);
  EXPECT_GT(stats.retransmits, 0);
}

TEST(ReliableChannel, HealsDuplicatesAndReorders) {
  fault_plan plan;
  plan.seed = 33;
  fault_plan::message_fault mf;
  mf.duplicate_probability = 0.3;
  mf.reorder_probability = 0.2;
  plan.message_faults.push_back(mf);
  reliable_stats stats;
  exchange_under(plan, &stats);
  EXPECT_GT(stats.dedup_dropped, 0);
}

TEST(ReliableChannel, HealsTheFullChaosMix) {
  fault_plan plan;
  plan.seed = 34;
  fault_plan::message_fault mf;
  mf.drop_probability = 0.15;
  mf.duplicate_probability = 0.15;
  mf.corrupt_probability = 0.15;
  mf.truncate_probability = 0.1;
  mf.reorder_probability = 0.1;
  plan.message_faults.push_back(mf);
  exchange_under(plan, nullptr);
}

TEST(ReliableChannel, ChecksumHookLetsCorruptionThrough) {
  // With verification disabled (the deliberately-broken transport the chaos
  // soak must catch), a corrupted payload is delivered mangled instead of
  // being dropped and retransmitted. Only rank 0's first data frame is hit:
  // an unverified flip in the kind or seq word of a fence token or of a
  // timing-dependent retransmit could make a data frame take the fence
  // token's place on the stream, which the fence reports as a contract
  // error.
  fault_plan plan;
  plan.seed = 8;
  fault_plan::message_fault mf;
  mf.src = 0;
  mf.corrupt_probability = 1.0;
  mf.min_payload = wire::header_doubles + 1;
  mf.fire_count = 1;
  plan.message_faults.push_back(mf);

  world w(2, plan);
  w.run([](transport& c) {
    reliable_options opts;
    opts.verify_checksums = false;
    reliable_channel ch(c, opts);
    const std::vector<double> payload(8, 1.0);
    if (c.rank() == 0) {
      ch.send(1, payload);
      ch.fence();
    } else {
      const std::vector<double> got = ch.recv(0);
      ASSERT_EQ(got.size(), payload.size());
      EXPECT_NE(got, payload);
      ch.fence();
    }
  });
  EXPECT_FALSE(w.aborted());
}

// A rank that computes while its acks arrive must read them before it
// resends anything: rank 0 sends one frame to each of ranks 1 and 2, both
// of which receive it, reply and raise a flag. Rank 0 waits on the flags
// without pumping and then keeps computing, while both acks sit queued in
// its inbox and ranks 1 and 2 wait in their fences. A busy rank is not
// blocked, so the world is not quiescent and nothing is resent, however
// long the compute takes.
TEST(ReliableChannel, AcksQueuedDuringComputeAreReadBeforeAnyRetransmit) {
  world w(3);
  std::array<std::atomic<bool>, 3> replied{};
  std::atomic<std::int64_t> retransmits{-1};
  w.run([&](transport& c) {
    reliable_channel ch(c);
    if (c.rank() == 0) {
      ch.send(1, std::vector<double>{1.0});
      ch.send(2, std::vector<double>{2.0});
      while (!replied[1].load() || !replied[2].load())
        std::this_thread::sleep_for(100us);
      std::this_thread::sleep_for(5ms);
      EXPECT_EQ(ch.recv(1).at(0), 10.0);
      EXPECT_EQ(ch.recv(2).at(0), 20.0);
      retransmits = ch.stats().retransmits;
    } else {
      const double got = ch.recv(0).at(0);
      ch.send(0, std::vector<double>{10.0 * got});
      replied[static_cast<std::size_t>(c.rank())] = true;
    }
    ch.fence();
  });
  EXPECT_FALSE(w.aborted());
  EXPECT_EQ(retransmits.load(), 0);
}

TEST(ReliableChannel, TotalLossExhaustsRetransmitsAndNamesThePeer) {
  fault_plan plan;
  plan.seed = 1;
  fault_plan::message_fault mf;
  mf.src = 0;
  mf.dst = 1;
  mf.drop_probability = 1.0;  // the 0→1 link is severed
  plan.message_faults.push_back(mf);

  world w(2, plan);
  std::atomic<int> unreachable_peer{-2};
  EXPECT_THROW(
      w.run([&](transport& c) {
        reliable_options opts;
        opts.max_retransmits = 4;
        reliable_channel ch(c, opts);
        if (c.rank() == 0) {
          ch.send(1, std::vector<double>{1.0});
          try {
            ch.fence();
          } catch (const peer_unreachable_error& e) {
            unreachable_peer = e.peer();
            throw;
          }
        } else {
          ch.recv(0);
        }
      }),
      peer_unreachable_error);
  EXPECT_EQ(unreachable_peer.load(), 1);
}

// ---- simultaneous multi-peer drops ------------------------------------------

// Every inbound link of rank 0 severed at once. The raw transport has no
// recourse: nothing ever lands in rank 0's inbox, and once the senders
// have exited its receive reports the world quiescent.
TEST(MultiPeerDrops, RawRecvTimesOutWhenEveryInboundLinkIsSevered) {
  fault_plan plan;
  plan.seed = 5;
  fault_plan::message_fault mf;
  mf.dst = 0;  // src = -1: all three peers drop simultaneously
  mf.drop_probability = 1.0;
  plan.message_faults.push_back(mf);

  world w(4, plan);
  std::atomic<bool> timed_out{false};
  w.run([&](transport& c) {
    if (c.rank() == 0) {
      any_message m;
      timed_out = c.recv_or_quiescent(&m, any_source) == recv_status::quiescent;
    } else {
      c.send(0, std::vector<double>{1.0 * c.rank()});
    }
  });
  EXPECT_TRUE(timed_out.load());
  EXPECT_EQ(w.total_counters().injected_drops, 3);
  EXPECT_EQ(w.counters(0).messages_received, 0);
}

// Same severed links, but only the *first* data frame on each: one
// quiescent round resends on every link at once and rank 0 sees all three
// payloads in order — no escalation.
TEST(MultiPeerDrops, ReliableChannelHealsSimultaneousFirstFrameLoss) {
  fault_plan plan;
  plan.seed = 5;
  for (int src = 1; src < 4; ++src) {
    fault_plan::message_fault mf;
    mf.src = src;
    mf.dst = 0;
    mf.drop_probability = 1.0;
    mf.fire_from = 0;
    mf.fire_count = 1;  // one-shot: the retransmit gets through
    mf.min_payload = wire::header_doubles + 1;  // spare the acks
    plan.message_faults.push_back(mf);
  }

  world w(4, plan);
  std::atomic<long> received{0};
  std::atomic<long> retransmits{0};
  w.run([&](transport& c) {
    reliable_channel ch(c);
    if (c.rank() == 0) {
      for (int peer = 1; peer < c.size(); ++peer) {
        const std::vector<double> got = ch.recv(peer);
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got.at(0), 10.0 * peer);
        ++received;
      }
    } else {
      ch.send(0, std::vector<double>{10.0 * c.rank(), 0.5});
    }
    ch.fence();
    retransmits += ch.stats().retransmits;
  });
  EXPECT_FALSE(w.aborted());
  EXPECT_EQ(received.load(), 3);
  EXPECT_EQ(retransmits.load(), 3);  // every peer healed its own link once
}

// One data frame dropped once: the world goes quiescent while rank 1 waits
// for it, rank 0 resends it in that round, and the run completes with
// exactly one retransmit and no restart.
TEST(MultiPeerDrops, FrameDroppedOnceHealsWithExactlyOneRetransmit) {
  resilience_options opts;
  fault_plan::message_fault& mf = opts.faults.message_faults.emplace_back();
  mf.src = 0;
  mf.dst = 1;
  mf.drop_probability = 1.0;
  mf.fire_count = 1;
  mf.min_payload = wire::header_doubles + 1;  // the data frame, not an ack
  std::atomic<double> got{0};
  resilience_report report;
  const std::exception_ptr error = run_resilient(
      2, opts,
      [&](reliable_channel& ch, int) {
        if (ch.rank() == 0) {
          ch.send(1, std::vector<double>{7.0});
        } else {
          got = ch.recv(0).at(0);
        }
      },
      nullptr, report);
  EXPECT_FALSE(error);
  EXPECT_EQ(got.load(), 7.0);
  EXPECT_EQ(report.counters.injected_drops, 1);
  EXPECT_EQ(report.reliable.retransmits, 1);
  EXPECT_EQ(report.recoveries, 0);
}

// ---- faults in the closing fence -------------------------------------------
//
// The barrier's last token can be lost after its sender's barrier is done.
// fence() resends it before returning, so a fault on that resend fails the
// rank inside its body, where run_resilient sees it: one restart, never a
// world_deadlock left behind by a rank that swallowed it and exited.

/// Drop rank 0's fence token to rank 1, its first send to rank 1. With
/// `resends_too`, also drop every send to rank 1 after the second (the ack
/// of rank 1's token), so every resend of the token is lost as well.
fault_plan lost_token_plan(bool resends_too) {
  fault_plan plan;
  fault_plan::message_fault mf;
  mf.src = 0;
  mf.dst = 1;
  mf.drop_probability = 1.0;
  mf.fire_count = 1;
  plan.message_faults.push_back(mf);
  if (resends_too) {
    mf.fire_from = 2;
    mf.fire_count = -1;
    plan.message_faults.push_back(mf);
  }
  return plan;
}

TEST(ClosingFenceFaults, KillOnALostTokenResendCostsOneRestart) {
  resilience_options opts;
  opts.faults = lost_token_plan(false);
  // Rank 0's ops: 1 its token (dropped), 2 the ack of rank 1's token, 3 the
  // token's resend in the quiescent round while rank 1 still waits for it.
  opts.faults.kills.push_back({.rank = 0, .at_op = 3});
  resilience_report report;
  const std::exception_ptr error = run_resilient(
      2, opts, [](reliable_channel&, int) {}, nullptr, report);
  EXPECT_FALSE(error);
  EXPECT_EQ(report.counters.injected_drops, 1);
  EXPECT_EQ(report.counters.injected_kills, 1);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, std::vector<int>{0});
}

TEST(ClosingFenceFaults, SpentBudgetOnALostTokenCostsOneRestart) {
  resilience_options opts;
  opts.faults = lost_token_plan(true);
  opts.reliable.max_retransmits = 2;
  resilience_report report;
  const std::exception_ptr error = run_resilient(
      2, opts, [](reliable_channel&, int) {}, nullptr, report);
  EXPECT_FALSE(error);
  // Rank 0 names rank 1, which never acked the token: rank 1 is dropped.
  EXPECT_EQ(report.reliable.retransmits, 2);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, std::vector<int>{1});
}

// Permanently severed links: the senders resend in every quiescent round
// until their budget is spent, then name the receiver, which never acked;
// two links down at once change nothing.
TEST(MultiPeerDrops, ReliableRecvTimeoutNamesTheSilentPeer) {
  fault_plan plan;
  plan.seed = 5;
  for (int src : {1, 2}) {
    fault_plan::message_fault mf;
    mf.src = src;
    mf.dst = 0;
    mf.drop_probability = 1.0;  // both links fully dead
    plan.message_faults.push_back(mf);
  }

  world w(3, plan);
  std::atomic<int> named_peer{-2};
  EXPECT_THROW(
      w.run([&](transport& c) {
        reliable_channel ch(c);
        if (c.rank() == 0) {
          (void)ch.recv(1);
        } else {
          ch.send(0, std::vector<double>{1.0});
          try {
            ch.fence();
          } catch (const peer_unreachable_error& e) {
            named_peer = e.peer();
            throw;
          }
        }
      }),
      peer_unreachable_error);
  EXPECT_EQ(named_peer.load(), 0);
}

TEST(ReliableChannel, StaleEpochTrafficIsDropped) {
  world w(2);
  w.run([](transport& c) {
    if (c.rank() == 0) {
      // Epoch-3 sender: its data must be invisible to an epoch-4 receiver.
      reliable_options old_epoch;
      old_epoch.epoch = 3;
      reliable_channel stale(c, old_epoch);
      stale.send(1, std::vector<double>{1.0});
      // No fence: the peer will never ack a stale-epoch message.
      reliable_options cur;
      cur.epoch = 4;
      reliable_channel ch(c, cur);
      ch.send(1, std::vector<double>{2.0});
      ch.fence();
    } else {
      reliable_options cur;
      cur.epoch = 4;
      reliable_channel ch(c, cur);
      EXPECT_EQ(ch.recv(0).at(0), 2.0);
      EXPECT_GE(ch.stats().stale_dropped, 1);
      ch.fence();
    }
  });
  EXPECT_FALSE(w.aborted());
}

TEST(ReliableChannel, StatsPublishToObsRegistry) {
  fault_plan plan;
  plan.seed = 31;
  fault_plan::message_fault mf;
  mf.drop_probability = 0.25;
  plan.message_faults.push_back(mf);
  auto& reg = sfp::obs::registry::global();
  const std::int64_t before = reg.get_counter("reliable.retransmits").value();
  reliable_stats stats;
  exchange_under(plan, &stats);  // channels publish deltas in destructors
  const std::int64_t after = reg.get_counter("reliable.retransmits").value();
  // The destructor publishes everything, including retransmits its own
  // shutdown linger performed after the stats were snapshotted.
  EXPECT_GE(after - before, stats.retransmits);
  EXPECT_GT(after - before, 0);
}

}  // namespace
