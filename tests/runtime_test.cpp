// Tests for the virtual-rank runtime: the in-process world as a transport —
// point-to-point ordering, tag filtering, the fence barrier a reliable
// channel builds on it, and stress under concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <vector>

#include "runtime/reliable.hpp"
#include "runtime/world.hpp"
#include "util/require.hpp"

namespace {

using namespace sfp::runtime;

/// Blocking receive of the next message under `tag`, from any source.
any_message recv_any(transport& t, int tag) {
  any_message m;
  while (!t.try_recv_any(tag, std::chrono::milliseconds(1), &m)) {
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
      t.send(1, 7, payload);
      const any_message back = recv_any(t, 8);
      EXPECT_EQ(back.src, 1);
      ASSERT_EQ(back.payload.size(), 3u);
      EXPECT_DOUBLE_EQ(back.payload[0], 2.0);
    } else {
      any_message msg = recv_any(t, 7);
      EXPECT_EQ(msg.src, 0);
      EXPECT_EQ(msg.tag, 7);
      for (auto& v : msg.payload) v *= 2.0;
      t.send(0, 8, msg.payload);
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
        t.send(1, 0, v);
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        const any_message m = recv_any(t, 0);
        ASSERT_EQ(m.payload.size(), 1u);
        EXPECT_DOUBLE_EQ(m.payload[0], static_cast<double>(i));
      }
    }
  });
}

TEST(World, TagsAreIndependentChannels) {
  world w(2);
  w.run([](transport& t) {
    if (t.rank() == 0) {
      t.send(1, /*tag=*/2, std::vector<double>{22.0});
      t.send(1, /*tag=*/1, std::vector<double>{11.0});
    } else {
      // Receive in the opposite order of sending; tags must match content.
      EXPECT_DOUBLE_EQ(recv_any(t, 1).payload[0], 11.0);
      EXPECT_DOUBLE_EQ(recv_any(t, 2).payload[0], 22.0);
    }
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
    channel.flush();
  });
}

TEST(World, ManyToOneTraffic) {
  constexpr int kRanks = 6;
  world w(kRanks);
  w.run([](transport& t) {
    if (t.rank() == 0) {
      double total = 0;
      for (int i = 1; i < kRanks; ++i) {
        const any_message m = recv_any(t, 3);
        total = std::accumulate(m.payload.begin(), m.payload.end(), total);
      }
      EXPECT_DOUBLE_EQ(total, 5.0 * 100.0);
    } else {
      const std::vector<double> v(100, 1.0);
      t.send(0, 3, v);
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
  // deadlock/lost-message stress of the mailbox fabric. Each round has its
  // own tag, so a fast rank's next round never mixes into this one.
  constexpr int kRanks = 24;
  world w(kRanks);
  w.run([](transport& t) {
    for (int round = 0; round < 5; ++round) {
      for (int dst = 0; dst < kRanks; ++dst) {
        if (dst == t.rank()) continue;
        const std::vector<double> payload{
            static_cast<double>(t.rank() * 1000 + round)};
        t.send(dst, round, payload);
      }
      std::vector<int> seen(kRanks, 0);
      for (int i = 1; i < kRanks; ++i) {
        const any_message m = recv_any(t, round);
        ASSERT_EQ(m.payload.size(), 1u);
        ASSERT_DOUBLE_EQ(m.payload[0],
                         static_cast<double>(m.src * 1000 + round));
        ++seen[static_cast<std::size_t>(m.src)];
      }
      for (int src = 0; src < kRanks; ++src)
        EXPECT_EQ(seen[static_cast<std::size_t>(src)], src == t.rank() ? 0 : 1);
    }
  });
  EXPECT_EQ(w.total_counters().messages_received, kRanks * (kRanks - 1) * 5);
}

TEST(World, EmptyMessageAllowed) {
  world w(2);
  w.run([](transport& t) {
    if (t.rank() == 0) {
      t.send(1, 0, std::vector<double>{});
    } else {
      EXPECT_TRUE(recv_any(t, 0).payload.empty());
    }
  });
}

}  // namespace
