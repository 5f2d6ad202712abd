// Contract-tier machinery and deep-validator tests: every validator must
// reject each class of corrupted input with the documented invariant slug,
// and the tiered macros must capture the violation site faithfully.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/validate.hpp"
#include "graph/csr.hpp"
#include "graph/validate.hpp"
#include "io/json.hpp"
#include "io/partition_io.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mesh/validate.hpp"
#include "obs/metrics.hpp"
#include "sfc/curve.hpp"
#include "sfc/parse.hpp"
#include "sfc/validate.hpp"
#include "util/contract.hpp"

namespace {

using sfp::diagnostic;

// ---------------------------------------------------------------------------
// Tiered contract macros
// ---------------------------------------------------------------------------

TEST(ContractTiers, RequireThrowsWithCapturedSite) {
  try {
    const int answer = 42;
    SFP_REQUIRE(answer == 0, "answer must be zero");
    FAIL() << "SFP_REQUIRE did not throw";
  } catch (const sfp::contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos) << what;
    EXPECT_NE(what.find("answer == 0"), std::string::npos) << what;
    EXPECT_NE(what.find("contract_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("answer must be zero"), std::string::npos) << what;
  }
}

TEST(ContractError, CarriesCheckSiteMessage) {
  // message() is the check site's text alone: no kind, expression or
  // source location, which what() still carries.
  try {
    const int answer = 42;
    SFP_REQUIRE(answer == 0, "answer must be zero");
    FAIL() << "SFP_REQUIRE did not throw";
  } catch (const sfp::contract_error& e) {
    EXPECT_EQ(e.message(), "answer must be zero");
    const std::string what = e.what();
    EXPECT_NE(what.find("answer == 0"), std::string::npos) << what;
    EXPECT_NE(what.find("contract_test.cpp"), std::string::npos) << what;
  }
}

sfp::contract_violation g_seen;  // written by the test handler below

TEST(ContractTiers, CustomHandlerSeesViolationThenThrowProceeds) {
  g_seen = {};
  const auto prev = sfp::set_violation_handler(
      [](const sfp::contract_violation& v) { g_seen = v; });
  EXPECT_THROW(SFP_REQUIRE(1 < 0, "handler test"), sfp::contract_error);
  sfp::set_violation_handler(prev);
  EXPECT_STREQ(g_seen.kind, "precondition");
  EXPECT_EQ(g_seen.expression, "1 < 0");
  EXPECT_GT(g_seen.line, 0);
  EXPECT_EQ(g_seen.message, "handler test");
}

TEST(ContractTiers, ObserverCountsViolationsInMetricsRegistry) {
  auto& counter = sfp::obs::registry::global().get_counter(
      "contract.violations.precondition");
  const std::int64_t before = counter.value();
  EXPECT_THROW(SFP_REQUIRE(false, "counted"), sfp::contract_error);
  EXPECT_EQ(counter.value(), before + 1);
}

TEST(ContractTiers, AssertTierMatchesBuildMode) {
#if !defined(NDEBUG) || defined(SFCPART_AUDIT)
  EXPECT_THROW(SFP_ASSERT(false, "active tier"), sfp::contract_error);
#else
  SFP_ASSERT(false, "compiled out");  // must be a no-op in this build
#endif
#if SFP_AUDIT_ENABLED
  EXPECT_THROW(SFP_AUDIT(false, "audit tier"), sfp::contract_error);
  EXPECT_THROW(
      SFP_AUDIT_DIAG(diagnostic::fail("test.slug", "forced failure")),
      sfp::contract_error);
#else
  SFP_AUDIT(false, "compiled out");
  SFP_AUDIT_DIAG(diagnostic::fail("test.slug", "compiled out"));
#endif
}

// ---------------------------------------------------------------------------
// graph::validate_csr / validate_csr_arrays
// ---------------------------------------------------------------------------

// Path 0-1-2-3, unit weights: the canonical valid fixture.
struct csr_arrays {
  std::vector<sfp::graph::eid> xadj{0, 1, 3, 5, 6};
  std::vector<sfp::graph::vid> adjncy{1, 0, 2, 1, 3, 2};
  std::vector<sfp::graph::weight> vwgt{1, 1, 1, 1};
  std::vector<sfp::graph::weight> adjwgt{1, 1, 1, 1, 1, 1};

  diagnostic validate() const {
    return sfp::graph::validate_csr_arrays(xadj, adjncy, vwgt, adjwgt);
  }
};

TEST(CsrValidator, AcceptsValidGraph) {
  const csr_arrays a;
  EXPECT_TRUE(a.validate().ok) << a.validate().to_string();
  const sfp::graph::csr g(a.xadj, a.adjncy, a.vwgt, a.adjwgt);
  EXPECT_TRUE(sfp::graph::validate_csr(g).ok);
}

TEST(CsrValidator, RejectsShapeMismatch) {
  csr_arrays a;
  a.xadj.pop_back();  // nv+1 rule broken
  EXPECT_EQ(a.validate().invariant, "csr.shape");
}

TEST(CsrValidator, RejectsNonMonotoneXadj) {
  csr_arrays a;
  a.xadj = {0, 1, 0, 5, 6};  // decreases at vertex 1
  EXPECT_EQ(a.validate().invariant, "csr.xadj-monotone");
}

TEST(CsrValidator, RejectsNonPositiveVertexWeight) {
  csr_arrays a;
  a.vwgt[2] = 0;
  const diagnostic d = a.validate();
  EXPECT_EQ(d.invariant, "csr.vertex-weight");
  EXPECT_EQ(d.index, 2);
}

TEST(CsrValidator, RejectsNeighborOutOfRange) {
  csr_arrays a;
  a.adjncy[0] = 9;
  EXPECT_EQ(a.validate().invariant, "csr.neighbor-range");
}

TEST(CsrValidator, RejectsSelfLoop) {
  csr_arrays a;
  a.adjncy[0] = 0;  // vertex 0 adjacent to itself
  EXPECT_EQ(a.validate().invariant, "csr.self-loop");
}

TEST(CsrValidator, RejectsUnsortedAdjacency) {
  csr_arrays a;
  std::swap(a.adjncy[1], a.adjncy[2]);  // vertex 1: {2, 0}
  EXPECT_EQ(a.validate().invariant, "csr.adjacency-sorted");
}

TEST(CsrValidator, RejectsNonPositiveEdgeWeight) {
  csr_arrays a;
  a.adjwgt[3] = -2;
  EXPECT_EQ(a.validate().invariant, "csr.edge-weight");
}

TEST(CsrValidator, RejectsMissingReverseEdge) {
  // 0->1 present, 1 only knows 2: asymmetric.
  const std::vector<sfp::graph::eid> xadj{0, 1, 2, 4, 5};
  const std::vector<sfp::graph::vid> adjncy{1, 2, 1, 3, 2};
  const std::vector<sfp::graph::weight> vwgt{1, 1, 1, 1};
  const std::vector<sfp::graph::weight> adjwgt{1, 1, 1, 1, 1};
  EXPECT_EQ(
      sfp::graph::validate_csr_arrays(xadj, adjncy, vwgt, adjwgt).invariant,
      "csr.symmetry");
}

TEST(CsrValidator, RejectsAsymmetricEdgeWeight) {
  csr_arrays a;
  a.adjwgt[0] = 2;  // 0->1 weighs 2, 1->0 still weighs 1
  EXPECT_EQ(a.validate().invariant, "csr.weight-symmetry");
}

// ---------------------------------------------------------------------------
// graph::validate_coarsening
// ---------------------------------------------------------------------------

struct coarsen_fixture {
  // Fine: path 0-1-2-3, all weights 1. Contract {0,1}->A, {2,3}->B:
  // coarse is A-B with vertex weights 2 and the single crossing edge 1-2.
  sfp::graph::csr fine{{0, 1, 3, 5, 6}, {1, 0, 2, 1, 3, 2},
                       {1, 1, 1, 1},    {1, 1, 1, 1, 1, 1}};
  std::vector<sfp::graph::vid> coarse_of{0, 0, 1, 1};

  static sfp::graph::csr coarse(sfp::graph::weight wa, sfp::graph::weight wb,
                                sfp::graph::weight cut) {
    return {{0, 1, 2}, {1, 0}, {wa, wb}, {cut, cut}};
  }
};

TEST(CoarseningValidator, AcceptsConservativeContraction) {
  const coarsen_fixture f;
  const diagnostic d =
      sfp::graph::validate_coarsening(f.fine, f.coarse(2, 2, 1), f.coarse_of);
  EXPECT_TRUE(d.ok) << d.to_string();
}

TEST(CoarseningValidator, RejectsMapOutOfRange) {
  coarsen_fixture f;
  f.coarse_of[3] = 7;
  EXPECT_EQ(sfp::graph::validate_coarsening(f.fine, f.coarse(2, 2, 1),
                                            f.coarse_of)
                .invariant,
            "coarsen.map-range");
}

TEST(CoarseningValidator, RejectsLostVertexWeight) {
  const coarsen_fixture f;
  EXPECT_EQ(sfp::graph::validate_coarsening(f.fine, f.coarse(3, 1, 1),
                                            f.coarse_of)
                .invariant,
            "coarsen.vertex-weight");
}

TEST(CoarseningValidator, RejectsWrongCutWeight) {
  const coarsen_fixture f;
  EXPECT_EQ(sfp::graph::validate_coarsening(f.fine, f.coarse(2, 2, 5),
                                            f.coarse_of)
                .invariant,
            "coarsen.cut-weight");
}

TEST(CoarseningValidator, RejectsSpuriousCoarseEdge) {
  // Fine has NO crossing edge (two disjoint edges 0-1, 2-3), yet the coarse
  // graph claims one.
  coarsen_fixture f;
  f.fine = {{0, 1, 2, 3, 4}, {1, 0, 3, 2}, {1, 1, 1, 1}, {1, 1, 1, 1}};
  EXPECT_EQ(sfp::graph::validate_coarsening(f.fine, f.coarse(2, 2, 1),
                                            f.coarse_of)
                .invariant,
            "coarsen.adjacency");
}

// ---------------------------------------------------------------------------
// mesh::validate_topology — corrupt one accessor of the view at a time
// ---------------------------------------------------------------------------

TEST(MeshValidator, AcceptsRealMeshes) {
  for (const int ne : {1, 2, 3, 4}) {
    const sfp::mesh::cubed_sphere m(ne);
    const diagnostic d = sfp::mesh::validate_topology(m);
    EXPECT_TRUE(d.ok) << "ne=" << ne << ": " << d.to_string();
  }
}

TEST(MeshValidator, RejectsWrongElementCount) {
  const sfp::mesh::cubed_sphere m(2);
  sfp::mesh::topology_view v = sfp::mesh::view_of(m);
  v.num_elements = 23;
  EXPECT_EQ(sfp::mesh::validate_topology(v).invariant, "mesh.element-count");
}

TEST(MeshValidator, RejectsBrokenIdRoundtrip) {
  const sfp::mesh::cubed_sphere m(2);
  sfp::mesh::topology_view v = sfp::mesh::view_of(m);
  v.element_id = [&m](sfp::mesh::element_ref r) {
    return (m.element_id(r) + 1) % m.num_elements();
  };
  EXPECT_EQ(sfp::mesh::validate_topology(v).invariant, "mesh.id-roundtrip");
}

TEST(MeshValidator, RejectsEdgeNeighborOutOfRange) {
  const sfp::mesh::cubed_sphere m(2);
  sfp::mesh::topology_view v = sfp::mesh::view_of(m);
  v.edge_neighbor = [&m](int id, int e) {
    return (id == 5 && e == 2) ? -3 : m.edge_neighbor(id, e);
  };
  const diagnostic d = sfp::mesh::validate_topology(v);
  EXPECT_EQ(d.invariant, "mesh.edge-range");
  EXPECT_EQ(d.index, 5);
}

TEST(MeshValidator, RejectsAsymmetricEdgeNeighbor) {
  const sfp::mesh::cubed_sphere m(2);
  sfp::mesh::topology_view v = sfp::mesh::view_of(m);
  // Element 0 claims a different (valid, non-self) neighbour across edge 0
  // than the real one; the link still names the impostor, so the mirror
  // checks run and the mutuality check is what fails.
  const int real = m.edge_neighbor(0, 0);
  const int impostor = (real + 1) % m.num_elements() == 0
                           ? (real + 2) % m.num_elements()
                           : (real + 1) % m.num_elements();
  v.edge_neighbor = [&m, impostor](int id, int e) {
    return (id == 0 && e == 0) ? impostor : m.edge_neighbor(id, e);
  };
  v.edge_link_of = [&m, impostor](int id, int e) {
    sfp::mesh::edge_link l = m.edge_link_of(id, e);
    if (id == 0 && e == 0) l.neighbor = impostor;
    return l;
  };
  const diagnostic d = sfp::mesh::validate_topology(v);
  EXPECT_EQ(d.invariant, "mesh.edge-symmetry");
}

TEST(MeshValidator, RejectsUnmirroredEdgeLink) {
  const sfp::mesh::cubed_sphere m(2);
  sfp::mesh::topology_view v = sfp::mesh::view_of(m);
  v.edge_link_of = [&m](int id, int e) {
    sfp::mesh::edge_link l = m.edge_link_of(id, e);
    if (id == 0 && e == 1) l.reversed = !l.reversed;
    return l;
  };
  EXPECT_EQ(sfp::mesh::validate_topology(v).invariant, "mesh.edge-link");
}

TEST(MeshValidator, RejectsWrongCornerCount) {
  const sfp::mesh::cubed_sphere m(2);
  sfp::mesh::topology_view v = sfp::mesh::view_of(m);
  v.corner_neighbors = [&m](int id) {
    const sfp::mesh::corner_set cn = m.corner_neighbors(id);
    std::vector<int> c(cn.begin(), cn.end());
    if (id == 0 && !c.empty()) c.pop_back();
    return c;
  };
  const diagnostic d = sfp::mesh::validate_topology(v);
  EXPECT_EQ(d.invariant, "mesh.corner-count");
  EXPECT_EQ(d.index, 0);
}

TEST(MeshValidator, RejectsCornerListingAnEdgeNeighbor) {
  const sfp::mesh::cubed_sphere m(2);
  sfp::mesh::topology_view v = sfp::mesh::view_of(m);
  v.corner_neighbors = [&m](int id) {
    const sfp::mesh::corner_set cn = m.corner_neighbors(id);
    std::vector<int> c(cn.begin(), cn.end());
    if (id == 0 && !c.empty()) c.back() = m.edge_neighbor(0, 0);
    return c;
  };
  EXPECT_EQ(sfp::mesh::validate_topology(v).invariant, "mesh.corner-disjoint");
}

TEST(MeshValidator, RejectsAsymmetricCornerNeighbor) {
  const sfp::mesh::cubed_sphere m(3);
  sfp::mesh::topology_view v = sfp::mesh::view_of(m);
  // Swap in a far-away element that is neither an edge neighbour of 0 nor
  // lists 0 back: range and disjointness pass, mutuality fails.
  const int far = m.num_elements() - 1;
  v.corner_neighbors = [&m, far](int id) {
    const sfp::mesh::corner_set cn = m.corner_neighbors(id);
    std::vector<int> c(cn.begin(), cn.end());
    if (id == 0 && !c.empty()) c.back() = far;
    return c;
  };
  EXPECT_EQ(sfp::mesh::validate_topology(v).invariant, "mesh.corner-symmetry");
}

TEST(MeshValidator, RejectsWrongCubeVertexIncidence) {
  // ne=1: all 24 corners sit on cube vertices and every corner list is
  // empty. Un-mark one corner on each of the two opposite polar faces (4 and
  // 5, which share no edge) and pair them as corner neighbours: every
  // per-element check still balances, but the global 8x3 incidence count
  // drops to 22.
  const sfp::mesh::cubed_sphere m(1);
  sfp::mesh::topology_view v = sfp::mesh::view_of(m);
  v.corner_is_cube_vertex = [&m](int id, int c) {
    if ((id == 4 || id == 5) && c == 0) return false;
    return m.corner_is_cube_vertex(id, c);
  };
  v.corner_neighbors = [](int id) {
    if (id == 4) return std::vector<int>{5};
    if (id == 5) return std::vector<int>{4};
    return std::vector<int>{};
  };
  EXPECT_EQ(sfp::mesh::validate_topology(v).invariant, "mesh.cube-vertex");
}

// ---------------------------------------------------------------------------
// sfc::validate_curve / validate_schedule
// ---------------------------------------------------------------------------

using sfp::sfc::cell;

TEST(CurveValidator, AcceptsHilbertSide2) {
  const std::vector<cell> u{{0, 0}, {0, 1}, {1, 1}, {1, 0}};
  EXPECT_TRUE(sfp::sfc::validate_curve(u, 2).ok);
}

TEST(CurveValidator, RejectsWrongCellCount) {
  const std::vector<cell> u{{0, 0}, {0, 1}, {1, 1}};
  EXPECT_EQ(sfp::sfc::validate_curve(u, 2).invariant, "curve.cell-count");
}

TEST(CurveValidator, RejectsCellOutOfRange) {
  const std::vector<cell> u{{0, 0}, {0, 1}, {1, 1}, {2, 1}};
  EXPECT_EQ(sfp::sfc::validate_curve(u, 2).invariant, "curve.cell-range");
}

TEST(CurveValidator, RejectsRevisitedCell) {
  const std::vector<cell> u{{0, 0}, {0, 1}, {0, 0}, {1, 0}};
  EXPECT_EQ(sfp::sfc::validate_curve(u, 2).invariant, "curve.revisit");
}

TEST(CurveValidator, RejectsDiagonalStep) {
  const std::vector<cell> u{{0, 0}, {1, 1}, {0, 1}, {1, 0}};
  const diagnostic d = sfp::sfc::validate_curve(u, 2);
  EXPECT_EQ(d.invariant, "curve.unit-step");
  EXPECT_NE(d.detail.find("not 4-adjacent"), std::string::npos) << d.detail;
}

TEST(CurveValidator, RejectsWrongEntry) {
  const std::vector<cell> u{{1, 0}, {1, 1}, {0, 1}, {0, 0}};
  EXPECT_EQ(sfp::sfc::validate_curve(u, 2).invariant, "curve.entry");
}

TEST(CurveValidator, RejectsWrongExit) {
  const std::vector<cell> u{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_EQ(sfp::sfc::validate_curve(u, 2).invariant, "curve.exit");
}

TEST(ScheduleValidator, AcceptsGeneratedCurves) {
  using sfp::sfc::refinement;
  for (const auto& s :
       {sfp::sfc::schedule{refinement::hilbert2, refinement::hilbert2},
        sfp::sfc::schedule{refinement::peano3, refinement::hilbert2},
        sfp::sfc::schedule{refinement::cinco5}}) {
    const diagnostic d = sfp::sfc::validate_schedule(s);
    EXPECT_TRUE(d.ok) << d.to_string();
  }
}

TEST(ScheduleValidator, RejectsEmptySchedule) {
  EXPECT_EQ(sfp::sfc::validate_schedule({}).invariant, "schedule.empty");
}

TEST(ScheduleValidator, RejectsOverflowingSide) {
  const sfp::sfc::schedule s(16, sfp::sfc::refinement::hilbert2);  // 2^16
  EXPECT_EQ(sfp::sfc::validate_schedule(s).invariant, "schedule.side");
}

// ---------------------------------------------------------------------------
// core::validate_plan
// ---------------------------------------------------------------------------

std::vector<int> identity_order(int k) {
  std::vector<int> o(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) o[static_cast<std::size_t>(i)] = i;
  return o;
}

TEST(PlanValidator, AcceptsContiguousBalancedSlices) {
  const auto order = identity_order(8);
  const sfp::partition::partition p(2, {0, 0, 0, 0, 1, 1, 1, 1});
  EXPECT_TRUE(sfp::core::validate_plan(p, order).ok);
  // Part labels may be permuted along the curve — still one segment each.
  const sfp::partition::partition q(2, {1, 1, 1, 1, 0, 0, 0, 0});
  EXPECT_TRUE(sfp::core::validate_plan(q, order).ok);
}

TEST(PlanValidator, RejectsSizeMismatch) {
  const sfp::partition::partition p(2, {0, 0, 1, 1});
  EXPECT_EQ(sfp::core::validate_plan(p, identity_order(8)).invariant,
            "plan.size");
}

TEST(PlanValidator, RejectsLabelOutOfRange) {
  const sfp::partition::partition p(2, {0, 0, 0, 0, 1, 1, 1, 2});
  EXPECT_EQ(sfp::core::validate_plan(p, identity_order(8)).invariant,
            "plan.label-range");
}

TEST(PlanValidator, RejectsNonPermutationOrder) {
  std::vector<int> order = identity_order(8);
  order[3] = 4;  // element 3 never visited, element 4 visited twice
  const sfp::partition::partition p(2, {0, 0, 0, 0, 1, 1, 1, 1});
  EXPECT_EQ(sfp::core::validate_plan(p, order).invariant, "plan.ownership");
}

TEST(PlanValidator, RejectsEmptyPart) {
  const sfp::partition::partition p(2, {0, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_EQ(sfp::core::validate_plan(p, identity_order(8)).invariant,
            "plan.part-empty");
}

TEST(PlanValidator, RejectsNonContiguousSegment) {
  const sfp::partition::partition p(2, {0, 0, 1, 1, 0, 0, 1, 1});
  EXPECT_EQ(sfp::core::validate_plan(p, identity_order(8)).invariant,
            "plan.segment-contiguity");
}

TEST(PlanValidator, RejectsImbalanceUnlessSlackDisablesIt) {
  const sfp::partition::partition p(2, {0, 0, 0, 0, 0, 0, 1, 1});
  EXPECT_EQ(sfp::core::validate_plan(p, identity_order(8)).invariant,
            "plan.balance");
  // Slack <= 0 turns the audit structure-only (recovery plans re-balance
  // later); everything but the weight bound must still hold.
  EXPECT_TRUE(
      sfp::core::validate_plan(p, identity_order(8), {}, 0.0).ok);
}

// ---------------------------------------------------------------------------
// Schedule-string parser (the third fuzz surface)
// ---------------------------------------------------------------------------

TEST(ScheduleParser, ParsesEquivalentSpellings) {
  using sfp::sfc::refinement;
  const sfp::sfc::schedule want{refinement::peano3, refinement::peano3,
                                refinement::hilbert2};
  for (const char* spec : {"p,p,h", "peano*2,hilbert", "3 3 2", "P, P, H",
                           "peano peano hilbert", "p^2 h"}) {
    EXPECT_EQ(sfp::sfc::parse_schedule(spec), want) << spec;
  }
}

TEST(ScheduleParser, FormatRoundTrips) {
  using sfp::sfc::refinement;
  const sfp::sfc::schedule s{refinement::cinco5, refinement::hilbert2,
                             refinement::peano3};
  EXPECT_EQ(sfp::sfc::parse_schedule(sfp::sfc::format_schedule(s)), s);
}

TEST(ScheduleParser, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", " ", ",", "bogus", "h*0", "h*21", "p**2", "42", "h*", "hilb",
        "h,p,q", "p*999"}) {
    sfp::sfc::schedule s;
    std::string error;
    EXPECT_FALSE(sfp::sfc::try_parse_schedule(spec, s, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    EXPECT_THROW(sfp::sfc::parse_schedule(spec), sfp::contract_error) << spec;
  }
}

TEST(ScheduleParser, RejectsSideAboveSafetyBound) {
  sfp::sfc::schedule s;
  std::string error;
  EXPECT_FALSE(sfp::sfc::try_parse_schedule("h*20,p", s, &error));  // 3·2^20
  EXPECT_NE(error.find("side"), std::string::npos) << error;
  EXPECT_TRUE(sfp::sfc::try_parse_schedule("h*20", s, &error));  // exactly 2^20
}

// ---------------------------------------------------------------------------
// Parser hardening regressions (found by the fuzz harnesses)
// ---------------------------------------------------------------------------

TEST(ParserHardening, JsonRejectsHostileNestingDepth) {
  // 300 unclosed '[' must be rejected by the depth guard, not by running
  // the stack out.
  EXPECT_THROW(sfp::io::parse_json(std::string(300, '[')),
               sfp::contract_error);
  // Moderate nesting stays accepted.
  std::string moderate;
  for (int i = 0; i < 100; ++i) moderate += '[';
  moderate += '1';
  for (int i = 0; i < 100; ++i) moderate += ']';
  EXPECT_TRUE(sfp::io::parse_json(moderate).is_array());
}

TEST(ParserHardening, PartitionLoadRejectsHostilePreambleCheaply) {
  // A preamble claiming 10^12 vertices over a two-row body must fail from
  // the row count, without sizing anything to the claim.
  std::istringstream is(
      "# sfcpart-partition v1 num_vertices=999999999999 num_parts=2\n"
      "element,part\n0,0\n1,1\n");
  EXPECT_THROW(sfp::io::load_partition(is), sfp::contract_error);
}

TEST(ParserHardening, PartitionLoadRejectsDuplicateAndExcessRows) {
  std::istringstream dup(
      "# sfcpart-partition v1 num_vertices=2 num_parts=2\n"
      "element,part\n0,0\n0,1\n");
  EXPECT_THROW(sfp::io::load_partition(dup), sfp::contract_error);
  std::istringstream excess(
      "# sfcpart-partition v1 num_vertices=2 num_parts=2\n"
      "element,part\n0,0\n1,1\n0,0\n");
  EXPECT_THROW(sfp::io::load_partition(excess), sfp::contract_error);
}

}  // namespace
