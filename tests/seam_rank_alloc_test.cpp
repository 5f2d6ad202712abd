// A distributed SEAM rank in O(K/P) memory: run_distributed at np = 8
// gives every rank thread its owned elements' nodes and nothing of the
// global field — its tracer, its two RK stages, its halo plan and its
// DSS accumulator are all in the rank-local layout, and only the run's
// caller-facing buffers (built outside the rank threads) are global. A
// plain run's only global buffer is the field it returns: the calling
// thread allocates that and a fixed term, and no exchange plan, checkpoint
// or state copy. This file replaces the global operator new to count each
// thread's allocated bytes and its largest single allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"
#include "seam/exchange.hpp"

namespace {

/// Bytes requested through operator new by the calling thread, ever, and
/// the largest single request.
thread_local std::int64_t t_bytes = 0;
thread_local std::int64_t t_largest = 0;

struct thread_total {
  std::int64_t bytes = 0, largest = 0;
};

/// Each exited thread's totals, in exit order (no allocation on exit).
constexpr int kMaxThreads = 64;
std::array<thread_total, kMaxThreads> g_thread_totals{};
std::atomic<int> g_threads{0};

/// Publishes the thread's totals when the thread exits (constructed on the
/// thread's first allocation).
struct thread_tally {
  ~thread_tally() {
    const int slot = g_threads.fetch_add(1);
    if (slot < kMaxThreads)
      g_thread_totals[static_cast<std::size_t>(slot)] = {t_bytes, t_largest};
  }
};
thread_local thread_tally t_tally;

/// Out of line, so operator new itself stays a plain malloc wrapper.
[[gnu::noinline]] void count_allocation(std::size_t n) {
  (void)&t_tally;  // odr-use: registers the exit hook on first allocation
  t_bytes += static_cast<std::int64_t>(n);
  t_largest = std::max(t_largest, static_cast<std::int64_t>(n));
}

/// Out of line, so the compiler never pairs an inlined free with a new.
[[gnu::noinline]] void release(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  count_allocation(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace {

using namespace sfp;

class SeamRankAlloc : public ::testing::TestWithParam<int> {};

TEST_P(SeamRankAlloc, RankThreadsAllocateOrderKOverP) {
  const int nranks = GetParam();
  constexpr int kNe = 16, kNp = 8, kSteps = 2;
  const mesh::cubed_sphere m(kNe);
  seam::advection_model model(m, kNp);
  model.set_field([](mesh::vec3 p) {
    return std::exp(-4.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
  });
  const partition::partition part = core::sfc_partition(m, nranks);
  const double dt = model.cfl_dt(0.3);
  const std::int64_t global_bytes =
      static_cast<std::int64_t>(model.field().size() * sizeof(double));
  // K = 1536 splits evenly over both rank counts, so every rank owns the
  // same number of nodes.
  ASSERT_EQ(m.num_elements() % nranks, 0);
  const std::int64_t owned_bytes = global_bytes / nranks;

  // Each rank's halo plan, as its rank body builds it: at most one double
  // per owned node, all of it boundary-sized (the plan lists the 4(np−1)
  // boundary nodes of a slot and the rank's shared dofs, never an interior
  // node or a global array).
  for (int r = 0; r < nranks; ++r) {
    const std::int64_t before = t_bytes;
    const seam::rank_exchange_plan rp =
        seam::rank_exchange_plan::build(model.dofs(), part, r);
    const std::int64_t plan_bytes = t_bytes - before;
    EXPECT_LE(plan_bytes, owned_bytes) << "rank " << r;
    RecordProperty("plan" + std::to_string(r) + "_bytes",
                   std::to_string(plan_bytes));
  }

  g_threads = 0;
  const std::int64_t caller_before = t_bytes;
  const std::vector<double> out =
      seam::run_distributed(model, part, dt, kSteps);
  const std::int64_t caller_bytes = t_bytes - caller_before;
  ASSERT_EQ(out.size(), model.field().size());
  // The calling thread: the returned field and the fabric's bookkeeping
  // (a deque per rank pair in the inboxes, counters, the rank threads'
  // launch state: ~57 KiB at 8 ranks). It plans no halo. A second
  // global-size buffer — a copy of the initial field or a checkpoint —
  // exceeds the bound.
  constexpr std::int64_t kCallerFixed = 128 * 1024;
  EXPECT_LE(caller_bytes, global_bytes + kCallerFixed);
  EXPECT_LT(kCallerFixed, global_bytes);
  RecordProperty("caller_bytes", std::to_string(caller_bytes));

  const int threads = g_threads.load();
  ASSERT_EQ(threads, nranks) << "one tally per rank thread";
  // Per owned node: the tracer, two RK stages (the element pass stores
  // each stage value at once, so no tendency array exists), and the halo
  // plan plus the DSS accumulator, which hold only boundary dofs. Measured,
  // everything a rank thread allocates over owned_bytes: 4.24 at 2 ranks
  // and 4.77 at 8 ranks, where the part that does not scale with the
  // owned area weighs more. The bound allows 5 plus a fixed term, which
  // covers the channel's per-peer state and the halo traffic of kSteps
  // steps (retransmit copies included), which scales with a segment's
  // boundary, not its area.
  constexpr std::int64_t kFixed = 128 * 1024;
  const std::int64_t bound = 5 * owned_bytes + kFixed;
  for (int t = 0; t < threads; ++t) {
    const thread_total& tt = g_thread_totals[static_cast<std::size_t>(t)];
    EXPECT_LE(tt.bytes, bound) << "rank thread " << t;
    // No single buffer a rank allocates is the size of a global field.
    EXPECT_LT(tt.largest, global_bytes) << "rank thread " << t;
    RecordProperty("thread" + std::to_string(t) + "_bytes",
                   std::to_string(tt.bytes));
  }
  // With 8 ranks the whole per-rank bound is below one global field, so a
  // rank holding any global-size array — field or stage — fails above.
  if (nranks == 8) {
    EXPECT_LT(bound, global_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, SeamRankAlloc, ::testing::Values(2, 8),
                         ::testing::PrintToStringParamName());

}  // namespace
