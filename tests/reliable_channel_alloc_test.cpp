// A reliable channel's memory does not grow with the length of a run: its
// state is one stream per peer, so after the first exchange every further
// round reuses what the channel already holds. This file replaces the
// global operator new/delete to track the process's live heap bytes.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "runtime/reliable.hpp"
#include "runtime/world.hpp"

namespace {

/// Bytes currently allocated through operator new, process-wide.
std::atomic<std::int64_t> g_live{0};

/// Out of line, so the compiler never pairs an inlined malloc with an
/// inlined free across the replaced operators.
[[gnu::noinline]] void* acquire(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  return p;
}

[[gnu::noinline]] void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return acquire(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace {

using namespace sfp::runtime;

TEST(ReliableChannelAlloc, LiveHeapDoesNotGrowWithExchangeRounds) {
  // Two ranks send to the peer, receive from it and fence, for many
  // rounds on one channel each. Rank 0 samples the live heap after a
  // warm-up and again at the end; the
  // difference may only be what is in flight at the two samples (a few
  // wire images and deque blocks), whatever the round count.
  constexpr int kWarmup = 100;
  constexpr int kRounds = 2100;
  std::int64_t warm = 0, done = 0;
  world w(2);
  w.run([&](transport& t) {
    reliable_channel ch(t);
    const int peer = 1 - t.rank();
    const std::vector<double> payload(16, 1.0 + t.rank());
    for (int round = 0; round < kRounds; ++round) {
      ch.send(peer, payload);
      EXPECT_EQ(ch.recv(peer).size(), payload.size());
      ch.fence();
      if (t.rank() == 0 && round + 1 == kWarmup) warm = g_live.load();
    }
    if (t.rank() == 0) done = g_live.load();
  });
  ASSERT_FALSE(w.aborted());
  const std::int64_t growth = done - warm;
  RecordProperty("live_heap_growth_bytes", std::to_string(growth));
  EXPECT_LT(growth, 16 * 1024)
      << "the channel's heap grew by " << growth << " bytes over "
      << kRounds - kWarmup << " rounds";
}

}  // namespace
