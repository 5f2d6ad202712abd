// Tests for the virtual-rank runtime: the in-process world as a transport —
// point-to-point ordering, the per-source streams and fence barrier a
// reliable channel builds on its untagged datagrams, and stress under
// concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <vector>

#include "runtime/reliable.hpp"
#include "runtime/world.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp::runtime;

/// What a raw any-source receive waits for.
constexpr wait_reason any_source{wait_reason::kind::recv};

/// Blocking receive of the next message, from any source.
any_message recv_any(transport& t) {
  any_message m;
  while (t.recv_or_quiescent(&m, any_source) == recv_status::quiescent) {
  }
  return m;
}

TEST(World, SingleRankRuns) {
  world w(1);
  bool ran = false;
  w.run([&](transport& t) {
    EXPECT_EQ(t.rank(), 0);
    EXPECT_EQ(t.size(), 1);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(World, RejectsZeroRanks) { EXPECT_THROW(world(0), sfp::contract_error); }

TEST(World, PingPong) {
  world w(2);
  w.run([](transport& t) {
    if (t.rank() == 0) {
      const std::vector<double> payload{1.0, 2.0, 3.0};
      t.send(1, payload);
      const any_message back = recv_any(t);
      EXPECT_EQ(back.src, 1);
      ASSERT_EQ(back.payload.size(), 3u);
      EXPECT_DOUBLE_EQ(back.payload[0], 2.0);
    } else {
      any_message msg = recv_any(t);
      EXPECT_EQ(msg.src, 0);
      for (auto& v : msg.payload) v *= 2.0;
      t.send(0, msg.payload);
    }
  });
}

TEST(World, MessagesBetweenSamePairAreOrdered) {
  world w(2);
  w.run([](transport& t) {
    constexpr int kCount = 200;
    if (t.rank() == 0) {
      for (int i = 0; i < kCount; ++i) {
        const std::vector<double> v{static_cast<double>(i)};
        t.send(1, v);
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        const any_message m = recv_any(t);
        ASSERT_EQ(m.payload.size(), 1u);
        EXPECT_DOUBLE_EQ(m.payload[0], static_cast<double>(i));
      }
    }
  });
}

TEST(World, SourcesAreIndependentStreams) {
  // The world carries untagged datagrams; the reliable channel keeps one
  // ordered stream per source over them, so a receiver reads its sources
  // in whatever order it likes and each stream stays in send order.
  world w(3);
  w.run([](transport& t) {
    reliable_channel channel(t);
    if (t.rank() == 0) {
      channel.send(2, std::vector<double>{1.0});
      channel.send(2, std::vector<double>{2.0});
    } else if (t.rank() == 1) {
      channel.send(2, std::vector<double>{11.0});
    } else {
      EXPECT_DOUBLE_EQ(channel.recv(1).at(0), 11.0);
      EXPECT_DOUBLE_EQ(channel.recv(0).at(0), 1.0);
      EXPECT_DOUBLE_EQ(channel.recv(0).at(0), 2.0);
    }
    channel.fence();
  });
}

TEST(World, BarrierSynchronizes) {
  // The barrier every rank program uses is the reliable channel's pumping
  // fence over the world transport.
  constexpr int kRanks = 8;
  world w(kRanks);
  std::atomic<int> phase_counter{0};
  w.run([&](transport& t) {
    reliable_channel channel(t);
    for (int round = 0; round < 20; ++round) {
      ++phase_counter;
      channel.fence();
      // After the fence every rank must observe all increments of this
      // round (counter is a multiple of kRanks at the phase boundary).
      EXPECT_EQ(phase_counter.load() % kRanks, 0)
          << "rank " << t.rank() << " round " << round;
      channel.fence();
    }
  });
}

TEST(World, ManyToOneTraffic) {
  constexpr int kRanks = 6;
  world w(kRanks);
  w.run([](transport& t) {
    if (t.rank() == 0) {
      double total = 0;
      for (int i = 1; i < kRanks; ++i) {
        const any_message m = recv_any(t);
        total = std::accumulate(m.payload.begin(), m.payload.end(), total);
      }
      EXPECT_DOUBLE_EQ(total, 5.0 * 100.0);
    } else {
      const std::vector<double> v(100, 1.0);
      t.send(0, v);
    }
  });
}

TEST(World, ExceptionInRankPropagates) {
  world w(2);
  EXPECT_THROW(w.run([](transport& t) {
                 if (t.rank() == 1) throw std::runtime_error("rank 1 died");
                 // rank 0 exits normally; nothing blocks on rank 1
               }),
               std::runtime_error);
}

TEST(World, ManyRanksAllToAllStress) {
  // 24 virtual ranks, several rounds of full all-to-all traffic — a
  // deadlock/lost-message stress of the inbox fabric. A fast peer's next
  // round may arrive early, so each round's receives accept any round but
  // check that every source's rounds arrive in send order.
  constexpr int kRanks = 24;
  constexpr int kRounds = 5;
  world w(kRanks);
  w.run([](transport& t) {
    std::vector<int> next_round(kRanks, 0);
    for (int round = 0; round < kRounds; ++round) {
      for (int dst = 0; dst < kRanks; ++dst) {
        if (dst == t.rank()) continue;
        const std::vector<double> payload{
            static_cast<double>(t.rank() * 1000 + round)};
        t.send(dst, payload);
      }
      for (int i = 1; i < kRanks; ++i) {
        const any_message m = recv_any(t);
        ASSERT_EQ(m.payload.size(), 1u);
        int& expected = next_round[static_cast<std::size_t>(m.src)];
        ASSERT_DOUBLE_EQ(m.payload[0],
                         static_cast<double>(m.src * 1000 + expected));
        ++expected;
      }
    }
    for (int src = 0; src < kRanks; ++src)
      EXPECT_EQ(next_round[static_cast<std::size_t>(src)],
                src == t.rank() ? 0 : kRounds);
  });
  EXPECT_EQ(w.total_counters().messages_received,
            kRanks * (kRanks - 1) * kRounds);
}

TEST(World, EmptyMessageAllowed) {
  world w(2);
  w.run([](transport& t) {
    if (t.rank() == 0) {
      t.send(1, std::vector<double>{});
    } else {
      EXPECT_TRUE(recv_any(t).payload.empty());
    }
  });
}

}  // namespace
