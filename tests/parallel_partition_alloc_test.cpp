// The distributed partitioner in O(K/P) memory per rank: at Ne = 1024
// (K = 6,291,456) on 64 in-process ranks, every rank thread allocates a
// few bytes per owned curve position plus the collectives' small payloads
// — far below the ~25 MB one O(K) int array would take. This file
// replaces the global operator new to count each thread's allocated bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/cube_curve.hpp"
#include "core/parallel_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "runtime/partition_fabric.hpp"
#include "util/contract.hpp"

namespace {

/// Bytes requested through operator new by the calling thread, ever.
thread_local std::int64_t t_bytes = 0;

/// Each exited thread's t_bytes, in exit order (no allocation on exit).
constexpr int kMaxThreads = 256;
std::array<std::int64_t, kMaxThreads> g_thread_totals{};
std::atomic<int> g_threads{0};

/// Publishes the thread's count when the thread exits (constructed on the
/// thread's first allocation).
struct thread_tally {
  ~thread_tally() {
    const int slot = g_threads.fetch_add(1);
    if (slot < kMaxThreads)
      g_thread_totals[static_cast<std::size_t>(slot)] = t_bytes;
  }
};
thread_local thread_tally t_tally;

/// Out of line, so operator new itself stays a plain malloc wrapper.
[[gnu::noinline]] void count_allocation(std::size_t n) {
  (void)&t_tally;  // odr-use: registers the exit hook on first allocation
  t_bytes += static_cast<std::int64_t>(n);
}

}  // namespace

void* operator new(std::size_t n) {
  count_allocation(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sfp;

TEST(ParallelPartitionAlloc, Ne1024RankThreadsAllocateOrderKOverP) {
  if (SFP_AUDIT_ENABLED)
    GTEST_SKIP() << "audit builds validate all 6.3M elements in the mesh "
                    "constructor";
  constexpr int kRanks = 64;
  constexpr int kParts = 128;
  const mesh::cubed_sphere m(1024);
  const core::cube_curve_spec spec = core::build_cube_curve_spec(m);
  const std::int64_t k = m.num_elements();
  ASSERT_EQ(k, 6'291'456);
  g_threads = 0;

  const runtime::parallel_partition_report report =
      runtime::run_parallel_partition(m, spec, kParts, {}, kRanks);
  ASSERT_FALSE(report.aborted);
  ASSERT_EQ(report.recoveries, 0);
  ASSERT_EQ(report.plan.part_of.size(), static_cast<std::size_t>(k));

  const int threads = g_threads.load();
  ASSERT_EQ(threads, kRanks) << "one tally per rank thread";
  std::sort(g_thread_totals.begin(), g_thread_totals.begin() + threads);
  const std::int64_t root = g_thread_totals[kRanks - 1];
  const std::int64_t leaf = g_thread_totals[kRanks - 2];
  // Per owned position: its element id, weight and label — 16 bytes, with
  // room to spare. Per rank, the collectives' payloads are O(nparts + P)
  // words. The collectives are flat stars (core/dist_scan.cpp), so the
  // root alone also sends the nparts cuts to each of the P − 1 others, and
  // every copy of them on the way through its channel counts here.
  const std::int64_t per_rank = 20 * (k / kRanks);
  const std::int64_t leaf_bound = per_rank + 256 * (kParts + kRanks);
  const std::int64_t root_bound =
      per_rank + 64 * std::int64_t{kRanks} * (kParts + kRanks);
  EXPECT_LE(leaf, leaf_bound) << "every rank thread but one allocated at "
                                 "most "
                              << leaf_bound << " bytes";
  EXPECT_LE(root, root_bound);
  // One O(K) array of int would be 4·K bytes; both bounds are far below.
  EXPECT_LT(root_bound, k);
  RecordProperty("root_thread_bytes", std::to_string(root));
  RecordProperty("leaf_thread_bytes", std::to_string(leaf));
}

}  // namespace
