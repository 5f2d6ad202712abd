// The cubed-sphere at large Ne: the mesh holds only (Ne, projection), so it
// constructs and answers topology queries without touching the heap, up to
// the largest Ne whose element ids fit an int. This file replaces the global
// operator new to count allocations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

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
using namespace sfp::mesh;

/// Symmetry spot checks around one element, counted as failures rather than
/// asserted so the caller can count allocations across them.
int asymmetries(const cubed_sphere& m, int id) {
  int bad = 0;
  for (int e = 0; e < 4; ++e) {
    const edge_link link = m.edge_link_of(id, e);
    const edge_link back = m.edge_link_of(link.neighbor, link.neighbor_edge);
    bad += back.neighbor != id || back.neighbor_edge != e ||
           back.reversed != link.reversed ||
           m.edge_neighbor(id, e) != link.neighbor;
  }
  int vertex_corners = 0;
  for (int c = 0; c < 4; ++c) {
    vertex_corners += m.corner_is_cube_vertex(id, c);
    const corner_incidences links = m.corner_links(id, c);
    bad += links.size() != (m.corner_is_cube_vertex(id, c) ? 2u : 3u);
    for (const auto& [other, oc] : links) {
      const corner_incidences back = m.corner_links(other, oc);
      bad += std::none_of(back.begin(), back.end(), [&](const auto& b) {
        return b.first == id && b.second == c;
      });
    }
  }
  const corner_set corners = m.corner_neighbors(id);
  bad += corners.size() != static_cast<std::size_t>(4 - vertex_corners);
  for (const int other : corners) {
    const corner_set back = m.corner_neighbors(other);
    bad += std::find(back.begin(), back.end(), id) == back.end();
  }
  return bad;
}

TEST(MeshScale, Ne4096ConstructsAndAnswersWithoutHeap) {
  if (SFP_AUDIT_ENABLED)
    GTEST_SKIP() << "audit builds validate all 10^8 elements in the "
                    "constructor";
  const int ne = 4096;
  const long before = g_allocations.load();
  const cubed_sphere m(ne);
  const long after_build = g_allocations.load();
  // Every face's four corner elements (each on a cube vertex) and the
  // elements at the middle of its four edges (each on a cube edge).
  int bad = 0, checked = 0;
  for (int face = 0; face < 6; ++face)
    for (const auto& [i, j] : {std::pair{0, 0}, std::pair{ne - 1, 0},
                               std::pair{ne - 1, ne - 1}, std::pair{0, ne - 1},
                               std::pair{ne / 2, 0}, std::pair{ne - 1, ne / 2},
                               std::pair{ne / 2, ne - 1}, std::pair{0, ne / 2}}) {
      bad += asymmetries(m, m.element_id(face, i, j));
      ++checked;
    }
  const long after_queries = g_allocations.load();
  EXPECT_EQ(after_build - before, 0);
  EXPECT_EQ(after_queries - after_build, 0);
  EXPECT_EQ(checked, 48);
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(m.num_elements(), 6 * ne * ne);
}

TEST(MeshScale, NeAboveTheIntElementIdBoundThrows) {
  // 6·Ne² < 2³¹ holds for Ne = 18918 and fails for 18919.
  EXPECT_EQ(cubed_sphere::max_ne, 18918);
  EXPECT_THROW(cubed_sphere(cubed_sphere::max_ne + 1), contract_error);
  EXPECT_THROW(cubed_sphere(1 << 20), contract_error);
}

TEST(MeshScale, LargestNeKeepsEveryIdInRange) {
  if (SFP_AUDIT_ENABLED)
    GTEST_SKIP() << "audit builds validate all elements in the constructor";
  const int ne = cubed_sphere::max_ne;
  const cubed_sphere m(ne);
  const int last = m.num_elements() - 1;
  EXPECT_EQ(last, 6 * 18918 * 18918 - 1);
  const element_ref r = m.element_of(last);
  EXPECT_EQ(r, (element_ref{5, ne - 1, ne - 1}));
  EXPECT_EQ(m.element_id(r), last);
  EXPECT_EQ(asymmetries(m, last), 0);
}

}  // namespace
