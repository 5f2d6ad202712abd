// The SFC point query allocates nothing: a compiled spec answers any
// number of curve_position_of calls without touching the heap. This file
// replaces the global operator new to count allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/cube_curve.hpp"
#include "mesh/cubed_sphere.hpp"
#include "util/contract.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sfp;

TEST(CurvePositionAlloc, Ne1024KeysAllocateNothing) {
  if (SFP_AUDIT_ENABLED)
    GTEST_SKIP() << "audit builds validate all 6.3M elements in the mesh "
                    "constructor";
  const mesh::cubed_sphere m(1024);
  const core::cube_curve_spec spec = core::build_cube_curve_spec(m);
  ASSERT_EQ(m.num_elements(), 6'291'456);
  // Warm-up: the first query of a process may build the memoised tables.
  std::int64_t sum = core::curve_position_of(spec, m, 0);
  const long before = g_allocations.load();
  // 100,000 elements spread over all six faces.
  const int stride = m.num_elements() / 100'000;
  for (int k = 0; k < 100'000; ++k)
    sum += core::curve_position_of(spec, m, k * stride);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_GT(sum, 0);
}

}  // namespace
