// Tests for sfplint (src/analysis): the lexer, the include/module graph,
// every rule pass against small synthetic fixture trees (asserting exact
// rule slugs and file:line), the suppression/baseline machinery, the JSON
// report, and a whole-repo smoke test that proves the committed tree is
// clean modulo the committed baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/baseline.hpp"
#include "analysis/cfg.hpp"
#include "analysis/changed_lines.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/fix.hpp"
#include "analysis/include_graph.hpp"
#include "analysis/manifest.hpp"
#include "analysis/passes.hpp"
#include "analysis/report.hpp"
#include "analysis/sarif.hpp"
#include "analysis/source_model.hpp"
#include "graph/ops.hpp"
#include "io/json.hpp"
#include "util/contract.hpp"

using namespace sfp;
using namespace sfp::analysis;

namespace {

source_tree make_tree(
    std::vector<std::pair<std::string, std::string>> files) {
  source_tree t;
  t.root = "<fixture>";
  for (auto& [path, text] : files)
    t.files.push_back(make_source_file(path, text));
  return t;
}

/// A fresh, empty directory under the system temp dir. ctest runs every
/// test as its own process, concurrently under -j, so fixed names would be
/// removed from under a sibling test.
std::filesystem::path make_temp_dir(const std::string& stem) {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / (stem + ".XXXXXX")).string();
  if (::mkdtemp(tmpl.data()) == nullptr)
    throw std::runtime_error("mkdtemp failed for " + tmpl);
  return tmpl;
}

layering_manifest fixture_manifest() {
  return manifest_from_json(io::parse_json(R"({
    "layers": [["util"], ["graph", "sfc"], ["mesh"], ["core"],
               ["mgp", "partition"], ["seam"], ["runtime"]],
    "sinks": {"obs": ["util"], "io": ["util", "obs"]}
  })"));
}

/// The findings with the given rule slug, in order.
std::vector<finding> with_rule(const std::vector<finding>& all,
                               const std::string& rule) {
  std::vector<finding> out;
  for (const auto& f : all)
    if (f.rule == rule) out.push_back(f);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lexer: strip_source
// ---------------------------------------------------------------------------

TEST(StripSource, BlanksCommentsButKeepsOffsetsAndNewlines) {
  const std::string in = "int a; // call rand() here\nint b; /* time( */ int c;\n";
  const std::string out = strip_source(in);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int c;"), std::string::npos);
  EXPECT_EQ(out[in.find('\n')], '\n');  // newlines survive in place
}

TEST(StripSource, BlanksStringAndCharLiteralBodies) {
  const std::string in = "auto s = \"rand()\"; char c = ';';\n";
  const std::string out = strip_source(in);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out.find("rand"), std::string::npos);
  // Quote delimiters stay so later heuristics see literal boundaries.
  EXPECT_EQ(out[in.find('"')], '"');
  // The ';' inside the char literal must not terminate any statement scan.
  EXPECT_EQ(out.find("';'"), std::string::npos);
}

TEST(StripSource, KeepsIncludeTargetsOnPreprocessorLines) {
  const std::string in = "#include \"util/contract.hpp\"\nauto s = \"x\";\n";
  const std::string out = strip_source(in);
  EXPECT_NE(out.find("util/contract.hpp"), std::string::npos);
  EXPECT_EQ(out.find("auto s = \"x\""), std::string::npos);
}

TEST(StripSource, DigitSeparatorsAreNotCharLiterals) {
  const std::string in = "int n = 1'000'000; int m = rand();\n";
  const std::string out = strip_source(in);
  // If 1'000'000 opened a char literal, the rand() call would be blanked.
  EXPECT_NE(out.find("rand()"), std::string::npos);
}

TEST(StripSource, RawStringsAreBlanked) {
  const std::string in = "auto s = R\"(std::rand() inside)\";\nint f();\n";
  const std::string out = strip_source(in);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int f();"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Source model: make_source_file
// ---------------------------------------------------------------------------

TEST(SourceModel, PathDecompositionAndLineProvenance) {
  const source_file f = make_source_file(
      "src/core/widget.hpp", "#pragma once\nint f();\nint g();\n");
  EXPECT_EQ(f.tree, "src");
  EXPECT_EQ(f.module, "core");
  EXPECT_TRUE(f.is_header);
  EXPECT_EQ(f.num_lines(), 3);
  EXPECT_EQ(f.line(2), "int f();");
  EXPECT_EQ(f.line_of(f.stripped.find("int g")), 3);

  const source_file c = make_source_file("tools/sfplint_cli.cpp", "int x;\n");
  EXPECT_EQ(c.tree, "tools");
  EXPECT_EQ(c.module, "");
  EXPECT_FALSE(c.is_header);
}

TEST(SourceModel, CollectsInlineSuppressionTags) {
  const source_file f = make_source_file(
      "src/seam/x.cpp",
      "void f(world& w) {\n"
      "  w.barrier();  // lint: blocking-ok — drain point, peers joined\n"
      "  w.barrier();\n"
      "}\n");
  EXPECT_TRUE(f.has_tag(2, "blocking"));
  EXPECT_FALSE(f.has_tag(3, "blocking"));
  EXPECT_FALSE(f.has_tag(2, "raw-assert"));
}

// ---------------------------------------------------------------------------
// Include graph
// ---------------------------------------------------------------------------

TEST(IncludeGraph, BuildsModuleEdgesWithProvenance) {
  const source_tree t = make_tree({
      {"src/core/a.cpp",
       "#include \"core/a.hpp\"\n#include \"util/contract.hpp\"\n"},
      {"src/core/a.hpp", "#pragma once\n#include \"graph/csr.hpp\"\n"},
      {"src/util/contract.hpp", "#pragma once\n"},
      {"src/graph/csr.hpp", "#pragma once\n"},
  });
  const module_graph g = build_module_graph(t);
  ASSERT_EQ(g.modules.size(), 3u);  // core, graph, util — sorted
  EXPECT_EQ(g.modules[0], "core");
  ASSERT_EQ(g.edges.size(), 2u);  // same-module include dropped
  EXPECT_EQ(g.edges[0].from_module, "core");
  EXPECT_EQ(g.edges[0].to_module, "util");
  EXPECT_EQ(g.edges[0].file, "src/core/a.cpp");
  EXPECT_EQ(g.edges[0].line, 2);
  EXPECT_EQ(g.edges[1].target, "graph/csr.hpp");
  // Dogfooded undirected skeleton validates and counts both edges.
  EXPECT_EQ(g.undirected.num_vertices(), 3);
  EXPECT_EQ(g.undirected.num_edges(), 2);
  EXPECT_TRUE(find_include_cycle(g).empty());
}

TEST(IncludeGraph, FindsDirectedCycle) {
  const source_tree t = make_tree({
      {"src/core/c.hpp", "#pragma once\n#include \"graph/g.hpp\"\n"},
      {"src/graph/g.hpp", "#pragma once\n#include \"core/c.hpp\"\n"},
  });
  const std::vector<std::string> cycle =
      find_include_cycle(build_module_graph(t));
  ASSERT_EQ(cycle.size(), 3u);
  EXPECT_EQ(cycle.front(), cycle.back());
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

TEST(Manifest, RanksSinksAndRejectsDuplicates) {
  const layering_manifest m = fixture_manifest();
  EXPECT_EQ(m.rank_of("util"), 0);
  EXPECT_EQ(m.rank_of("graph"), m.rank_of("sfc"));
  EXPECT_LT(m.rank_of("core"), m.rank_of("runtime"));
  EXPECT_EQ(m.rank_of("obs"), -1);
  EXPECT_TRUE(m.is_sink("io"));
  EXPECT_TRUE(m.sink_may_include("io", "obs"));
  EXPECT_FALSE(m.sink_may_include("obs", "graph"));
  EXPECT_TRUE(m.known("mesh"));
  EXPECT_FALSE(m.known("mystery"));

  EXPECT_THROW(manifest_from_json(io::parse_json(
                   R"({"layers": [["util"], ["util"]], "sinks": {}})")),
               contract_error);
}

// ---------------------------------------------------------------------------
// Pass: layering
// ---------------------------------------------------------------------------

TEST(LayeringPass, FlagsUpwardEdgeWithExactLocation) {
  const source_tree t = make_tree({
      {"src/util/bad.cpp", "int x;\n#include \"graph/csr.hpp\"\n"},
      {"src/graph/csr.hpp", "#pragma once\n"},
  });
  const auto findings =
      check_layering(build_module_graph(t), fixture_manifest());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].file, "src/util/bad.cpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("'util' may not depend on 'graph'"),
            std::string::npos);
}

TEST(LayeringPass, AllowsDownwardPeerAndSinkEdges) {
  const source_tree t = make_tree({
      {"src/core/a.cpp", "#include \"util/contract.hpp\"\n"},   // downward
      {"src/graph/b.cpp", "#include \"sfc/curve.hpp\"\n"},      // same group
      {"src/mesh/c.cpp", "#include \"obs/metrics.hpp\"\n"},     // into sink
      {"src/io/d.cpp", "#include \"obs/metrics.hpp\"\n"},       // sink -> sink
      {"src/util/contract.hpp", "#pragma once\n"},
      {"src/sfc/curve.hpp", "#pragma once\n"},
      {"src/obs/metrics.hpp", "#pragma once\n"},
  });
  EXPECT_TRUE(
      check_layering(build_module_graph(t), fixture_manifest()).empty());
}

TEST(LayeringPass, FlagsSinkReachingOutsideItsDeclaredDeps) {
  const source_tree t = make_tree({
      {"src/obs/bad.cpp", "#include \"graph/csr.hpp\"\n"},
      {"src/graph/csr.hpp", "#pragma once\n"},
  });
  const auto findings =
      check_layering(build_module_graph(t), fixture_manifest());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].file, "src/obs/bad.cpp");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LayeringPass, ReportsCycleOnceWithModulePath) {
  const source_tree t = make_tree({
      {"src/core/c.hpp", "#pragma once\n#include \"graph/g.hpp\"\n"},
      {"src/graph/g.hpp", "#pragma once\n#include \"core/c.hpp\"\n"},
  });
  const auto findings =
      check_layering(build_module_graph(t), fixture_manifest());
  const auto cycles = with_rule(findings, "layering-cycle");
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0].message.find("core"), std::string::npos);
  EXPECT_NE(cycles[0].message.find("graph"), std::string::npos);
  EXPECT_NE(cycles[0].message.find(" -> "), std::string::npos);
  EXPECT_GT(cycles[0].line, 0);  // anchored at a real include site
  // The upward half of the loop is also a plain layering violation.
  const auto edges = with_rule(findings, "layering");
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].file, "src/graph/g.hpp");
  EXPECT_EQ(edges[0].line, 2);
}

TEST(LayeringPass, ReportsUnknownModuleOnce) {
  const source_tree t = make_tree({
      {"src/mystery/a.cpp",
       "#include \"util/contract.hpp\"\n#include \"util/log.hpp\"\n"},
      {"src/util/contract.hpp", "#pragma once\n"},
  });
  const auto findings =
      check_layering(build_module_graph(t), fixture_manifest());
  const auto unknown = with_rule(findings, "layering-unknown");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].file, "src/mystery/a.cpp");
  EXPECT_NE(unknown[0].message.find("'mystery'"), std::string::npos);
  EXPECT_NE(unknown[0].message.find("tools/layering.json"), std::string::npos);
}

#ifdef SFCPART_SOURCE_DIR
TEST(LayeringPass, CommittedManifestStillFlagsUpwardIncludes) {
  // The committed manifest puts partition below core and runtime below
  // seam, matching the real include graph. Those downward edges are legal;
  // their reverses must still be flagged.
  const layering_manifest m =
      load_manifest(std::string(SFCPART_SOURCE_DIR) + "/tools/layering.json");
  const source_tree t = make_tree({
      {"src/runtime/up.cpp", "#include \"seam/distributed.hpp\"\n"},
      {"src/partition/up.cpp", "#include \"core/sfc_partition.hpp\"\n"},
      {"src/seam/down.cpp", "#include \"runtime/reliable.hpp\"\n"},
      {"src/core/down.cpp", "#include \"partition/partition.hpp\"\n"},
      {"src/seam/distributed.hpp", "#pragma once\n"},
      {"src/core/sfc_partition.hpp", "#pragma once\n"},
      {"src/runtime/reliable.hpp", "#pragma once\n"},
      {"src/partition/partition.hpp", "#pragma once\n"},
  });
  auto flagged = with_rule(check_layering(build_module_graph(t), m),
                           "layering");
  std::sort(flagged.begin(), flagged.end());
  ASSERT_EQ(flagged.size(), 2u);
  EXPECT_EQ(flagged[0].file, "src/partition/up.cpp");
  EXPECT_NE(flagged[0].message.find("'partition' may not depend on 'core'"),
            std::string::npos);
  EXPECT_EQ(flagged[1].file, "src/runtime/up.cpp");
  EXPECT_NE(flagged[1].message.find("'runtime' may not depend on 'seam'"),
            std::string::npos);
}
#endif

// ---------------------------------------------------------------------------
// Pass: determinism
// ---------------------------------------------------------------------------

TEST(DeterminismPass, FlagsEachNondeterminismSourceAtItsLine) {
  const source_tree t = make_tree({
      {"src/core/bad.cpp",
       "int f() { return std::rand(); }\n"
       "void g() { std::srand(7); }\n"
       "std::random_device dev;\n"
       "long h() { return time(nullptr); }\n"
       "std::mt19937 gen;\n"
       "std::default_random_engine eng{};\n"},
  });
  const auto findings = check_determinism(t);
  ASSERT_EQ(findings.size(), 6u);
  for (int expected_line = 1; expected_line <= 6; ++expected_line) {
    EXPECT_EQ(findings[static_cast<std::size_t>(expected_line - 1)].rule,
              "determinism");
    EXPECT_EQ(findings[static_cast<std::size_t>(expected_line - 1)].line,
              expected_line);
  }
  EXPECT_NE(findings[0].message.find("rand()"), std::string::npos);
  EXPECT_NE(findings[4].message.find("unseeded std::mt19937"),
            std::string::npos);
}

TEST(DeterminismPass, SilentOnSeededEnginesMembersAndOtherModules) {
  const source_tree t = make_tree({
      // Seeded engines, member calls, and brand()-style names are fine.
      {"src/core/good.cpp",
       "std::mt19937 gen(42);\n"
       "double t(clock& c) { return c.time(); }\n"
       "int brand();\n"
       "int x = brand();\n"},
      // Same offending content outside the determinism module set.
      {"src/io/loader.cpp", "int f() { return std::rand(); }\n"},
      {"tools/gen.cpp", "int f() { return std::rand(); }\n"},
  });
  EXPECT_TRUE(check_determinism(t).empty());
}

// ---------------------------------------------------------------------------
// Pass: contract discipline
// ---------------------------------------------------------------------------

TEST(ContractPass, FlagsSideEffectfulConditions) {
  const source_tree t = make_tree({
      {"src/core/contracts.cpp",
       "#include \"util/contract.hpp\"\n"
       "void f(int n, int m) {\n"
       "  SFP_REQUIRE(++n > 0, \"increments the argument\");\n"
       "  SFP_REQUIRE(n == 3, \"pure comparison\");\n"
       "  SFP_ASSERT(n = m, \"assignment, not comparison\");\n"
       "  SFP_AUDIT(n <= m && n >= 0 && n != 7, \"pure comparisons\");\n"
       "}\n"},
  });
  const auto findings = check_contract_discipline(t);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "contract-purity");
  EXPECT_EQ(findings[0].file, "src/core/contracts.cpp");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("SFP_REQUIRE"), std::string::npos);
  EXPECT_EQ(findings[1].line, 5);
  EXPECT_NE(findings[1].message.find("SFP_ASSERT"), std::string::npos);
}

TEST(ContractPass, FlagsThrowInRuntimeOutsideDesignatedFiles) {
  const source_tree t = make_tree({
      {"src/runtime/widget.cpp",
       "void f() {\n  throw 1;\n}\n"},
      {"src/runtime/world.cpp",  // designated failure path: allowed
       "void g() {\n  throw 2;\n}\n"},
      {"src/core/other.cpp",  // rule is runtime-only
       "void h() {\n  throw 3;\n}\n"},
  });
  const auto findings = check_contract_discipline(t);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "runtime-throw");
  EXPECT_EQ(findings[0].file, "src/runtime/widget.cpp");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(ContractPass, FlagsAuditInsideHeaderLoopOnly) {
  const std::string body =
      "#pragma once\n"                                   // 1
      "#include \"util/contract.hpp\"\n"                 // 2
      "inline int sum(int n) {\n"                        // 3
      "  int s = 0;\n"                                   // 4
      "  for (int i = 0; i < n; ++i) {\n"                // 5
      "    SFP_AUDIT(s >= 0, \"inside the loop\");\n"    // 6
      "    s += i;\n"                                    // 7
      "  }\n"                                            // 8
      "  SFP_AUDIT(s >= 0, \"at the boundary\");\n"      // 9
      "  return s;\n"                                    // 10
      "}\n";
  const source_tree t = make_tree({
      {"src/core/hot.hpp", body},
      // Same code in a .cpp is out of scope for this rule.
      {"src/core/hot.cpp", body.substr(body.find('\n') + 1)},
  });
  const auto findings = check_contract_discipline(t);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "audit-header-loop");
  EXPECT_EQ(findings[0].file, "src/core/hot.hpp");
  EXPECT_EQ(findings[0].line, 6);
}

// ---------------------------------------------------------------------------
// Pass: header hygiene
// ---------------------------------------------------------------------------

TEST(HeaderPass, RequiresPragmaOnceAsFirstMeaningfulLine) {
  const source_tree t = make_tree({
      {"src/core/nopragma.hpp", "int x;\n#pragma once\n"},
      {"src/core/good.hpp", "// leading comment\n\n#pragma once\nint y;\n"},
      {"src/core/impl.cpp", "int z;\n"},  // rule is header-only
  });
  const auto findings = check_header_hygiene(t);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "pragma-once");
  EXPECT_EQ(findings[0].file, "src/core/nopragma.hpp");
  EXPECT_EQ(findings[0].line, 1);
}

// ---------------------------------------------------------------------------
// Pass: blocking calls (folded in from tools/lint.sh)
// ---------------------------------------------------------------------------

TEST(BlockingPass, FlagsBareBlockingCallsOutsideWrappers) {
  const source_tree t = make_tree({
      {"src/seam/foo.cpp",
       "void f(world& w) {\n"
       "  int x = 0;\n"
       "  w.barrier();\n"
       "}\n"},
      {"src/seam/exchange.cpp",  // the designated wrapper is allowed
       "void g(world& w) { w.barrier(); }\n"},
      {"src/core/not_scanned.cpp",  // rule only covers runtime/seam trees
       "void h(world& w) { w.barrier(); }\n"},
  });
  const auto findings = check_blocking_calls(t);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "blocking");
  EXPECT_EQ(findings[0].file, "src/seam/foo.cpp");
  EXPECT_EQ(findings[0].line, 3);
}

// ---------------------------------------------------------------------------
// Pass: raw assert (folded in from tools/lint.sh)
// ---------------------------------------------------------------------------

TEST(RawAssertPass, FlagsAssertCallsAndIncludesButNotStaticAssert) {
  const source_tree t = make_tree({
      {"src/util/a.cpp",
       "#include <cassert>\n"
       "void f(int x) { assert(x > 0); }\n"
       "static_assert(1 + 1 == 2, \"arithmetic\");\n"},
      {"tests/free.cpp", "void g(int x) { assert(x); }\n"},  // tests exempt
  });
  const auto findings = check_raw_assert(t);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "raw-assert");
  EXPECT_EQ(findings[0].file, "src/util/a.cpp");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
}

// ---------------------------------------------------------------------------
// transport-discipline pass
// ---------------------------------------------------------------------------

namespace {

layering_manifest transport_manifest() {
  return manifest_from_json(io::parse_json(R"({
    "layers": [["util"], ["graph", "sfc"], ["mesh"], ["core"],
               ["mgp", "partition"], ["seam"], ["runtime"]],
    "sinks": {"obs": ["util"], "io": ["util", "obs"]},
    "transport": {"fabric_module": "runtime",
                  "fabric_types": ["world", "shm_fabric"]}
  })"));
}

}  // namespace

TEST(TransportDisciplinePass, FlagsConstructionOutsideTheFabricModule) {
  const source_tree t = make_tree({
      {"src/seam/bad.cpp",
       "void f(int n) {\n"                                // 1
       "  runtime::world w(n);\n"                         // 2
       "  runtime::shm_fabric fab{n};\n"                  // 3
       "  use(runtime::world(n));\n"                      // 4 (temporary)
       "}\n"},
  });
  auto findings = check_transport_discipline(t, transport_manifest());
  std::sort(findings.begin(), findings.end());  // pass order is per-type
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "transport-discipline");
  EXPECT_EQ(findings[0].file, "src/seam/bad.cpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_EQ(findings[2].line, 4);
  EXPECT_NE(findings[0].message.find("runtime::world"), std::string::npos);
}

TEST(TransportDisciplinePass, SilentOnNonConstructionUsesAndFabricModule) {
  const source_tree t = make_tree({
      // Nested names, references, pointers, parameters: not constructions.
      {"src/seam/uses.cpp",
       "runtime::world::options make_opts();\n"
       "void g(const runtime::world& w, runtime::world* p);\n"
       "int rank_of(runtime::world& w) { return w.size(); }\n"},
      // The fabric module itself may construct its own types.
      {"src/runtime/world.cpp",
       "runtime::world make(int n) { runtime::world w(n); return w; }\n"},
      // Out-of-src trees (tests, tools) are out of scope.
      {"tests/fixture.cpp", "void t() { runtime::world w(2); }\n"},
  });
  EXPECT_TRUE(check_transport_discipline(t, transport_manifest()).empty());
  // A manifest with no transport section disables the pass entirely.
  const source_tree bad = make_tree({
      {"src/seam/bad.cpp", "void f() { runtime::world w(4); }\n"},
  });
  EXPECT_TRUE(check_transport_discipline(bad, fixture_manifest()).empty());
}

TEST(TransportDisciplinePass, InlineAnnotationSuppressesViaRunAll) {
  const source_tree t = make_tree({
      {"src/seam/noted.cpp",
       "void f(int n) {\n"
       "  runtime::world w(n);  // lint: transport-discipline-ok — runner\n"
       "  runtime::world v(n);\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, transport_manifest());
  const auto flagged = with_rule(r.findings, "transport-discipline");
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].line, 3);
  const auto quiet = with_rule(r.suppressed, "transport-discipline");
  ASSERT_EQ(quiet.size(), 1u);
  EXPECT_EQ(quiet[0].line, 2);
}

// ---------------------------------------------------------------------------
// run_all: suppression convention
// ---------------------------------------------------------------------------

TEST(RunAll, InlineAnnotationMovesFindingToSuppressed) {
  const source_tree t = make_tree({
      {"src/seam/noted.cpp",
       "void f(world& w) {\n"
       "  w.barrier();  // lint: blocking-ok — drain point, peers joined\n"
       "  w.barrier();\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].line, 3);  // the unannotated call still fails
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "blocking");
  EXPECT_EQ(r.suppressed[0].line, 2);
}

TEST(RunAll, WrongRuleSlugDoesNotSuppress) {
  const source_tree t = make_tree({
      {"src/seam/noted.cpp",
       "void f(world& w) {\n"
       "  w.barrier();  // lint: raw-assert-ok — wrong slug\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "blocking");
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(RunAll, CyclesAndUnknownModulesAreNeverSuppressible) {
  const source_tree t = make_tree({
      {"src/core/c.hpp",
       "#pragma once\n"
       "#include \"graph/g.hpp\"  // lint: layering-cycle-ok — nice try\n"},
      {"src/graph/g.hpp",
       "#pragma once\n"
       "#include \"core/c.hpp\"  // lint: layering-cycle-ok — nice try\n"},
      {"src/mystery/m.cpp",
       "#include \"util/x.hpp\"  // lint: layering-unknown-ok — nope\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  EXPECT_EQ(with_rule(r.findings, "layering-cycle").size(), 1u);
  EXPECT_EQ(with_rule(r.findings, "layering-unknown").size(), 1u);
}

TEST(RunAll, CleanFixtureTreeStaysSilent) {
  const source_tree t = make_tree({
      {"src/util/contract.hpp", "#pragma once\nint f();\n"},
      {"src/core/a.hpp", "#pragma once\n#include \"util/contract.hpp\"\n"},
      {"src/core/a.cpp",
       "#include \"core/a.hpp\"\nint impl() { return 1; }\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(r.suppressed.empty());
  EXPECT_EQ(r.files_scanned, 3u);
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

TEST(Baseline, MatchesByRuleFileAndOptionalSubstring) {
  analysis_result r;
  r.findings = {
      finding{"raw-assert", "src/util/a.cpp", 2, "raw assert() in f"},
      finding{"blocking", "src/seam/foo.cpp", 3, "bare blocking call"},
      finding{"blocking", "src/seam/foo.cpp", 9, "other message"},
  };
  const auto bl = baseline_from_json(io::parse_json(R"({
    "version": 1,
    "suppressions": [
      {"rule": "raw-assert", "file": "src/util/a.cpp"},
      {"rule": "blocking", "file": "src/seam/foo.cpp",
       "match": "bare blocking"}
    ]
  })"));
  ASSERT_EQ(bl.size(), 2u);
  const std::vector<finding> baselined = apply_baseline(r, bl);
  ASSERT_EQ(baselined.size(), 2u);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].line, 9);  // substring did not match this one
}

TEST(Baseline, RoundTripsThroughWriter) {
  const std::vector<finding> fs = {
      finding{"layering", "src/util/bad.cpp", 2, "breaks the layering"}};
  const auto back = baseline_from_json(baseline_to_json(fs));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].rule, "layering");
  EXPECT_EQ(back[0].file, "src/util/bad.cpp");
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

TEST(Report, TextListsFindingsWithProvenanceAndSummary) {
  const source_tree t = make_tree({
      {"src/core/nopragma.hpp", "int x;\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const std::string text = render_text(r, {});
  EXPECT_NE(text.find("src/core/nopragma.hpp:1: [pragma-once]"),
            std::string::npos);
  EXPECT_NE(text.find("sfplint: 1 files"), std::string::npos);
  EXPECT_NE(text.find("1 finding(s)"), std::string::npos);
}

TEST(Report, JsonRoundTripsAndCountsMatch) {
  const source_tree t = make_tree({
      {"src/core/a.cpp",
       "#include \"util/contract.hpp\"\nint f() { return std::rand(); }\n"},
      {"src/util/contract.hpp", "#pragma once\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  ASSERT_EQ(r.findings.size(), 1u);
  const io::json_value doc = report_to_json(r, {});
  // The writer's output must re-parse to the same structure.
  const io::json_value back = io::parse_json(io::write_json(doc, 2));
  EXPECT_EQ(back.at("tool").string, "sfplint");
  EXPECT_EQ(back.at("summary").at("files").number, 2);
  EXPECT_EQ(back.at("summary").at("findings").number, 1);
  ASSERT_EQ(back.at("findings").array.size(), 1u);
  const io::json_value& f = back.at("findings").array[0];
  EXPECT_EQ(f.at("rule").string, "determinism");
  EXPECT_EQ(f.at("file").string, "src/core/a.cpp");
  EXPECT_EQ(f.at("line").number, 2);
  EXPECT_FALSE(back.at("modules").array.empty());
}

// ---------------------------------------------------------------------------
// load_tree: filesystem entry point
// ---------------------------------------------------------------------------

TEST(LoadTree, ScansSubtreesSortedAndSkipsMissingOnes) {
  namespace fs = std::filesystem;
  const fs::path root = make_temp_dir("sfplint_fixture_tree");
  fs::create_directories(root / "src" / "util");
  fs::create_directories(root / "tools");
  {
    std::ofstream(root / "src" / "util" / "b.hpp") << "#pragma once\n";
    std::ofstream(root / "src" / "util" / "a.cpp")
        << "#include \"util/b.hpp\"\n";
    std::ofstream(root / "tools" / "cli.cpp") << "int main() {}\n";
    std::ofstream(root / "src" / "util" / "notes.md") << "not code\n";
  }
  const source_tree t = load_tree(root.string());
  ASSERT_EQ(t.files.size(), 3u);  // .md skipped, bench/ absent is fine
  EXPECT_EQ(t.files[0].path, "src/util/a.cpp");
  EXPECT_EQ(t.files[1].path, "src/util/b.hpp");
  EXPECT_EQ(t.files[2].path, "tools/cli.cpp");
  EXPECT_EQ(t.files[0].module, "util");
  EXPECT_TRUE(t.files[1].is_header);
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// Call graph: extraction + resolution
// ---------------------------------------------------------------------------

namespace {

int must_index(const call_graph& g, const std::string& qualified) {
  const int idx = g.index_of(qualified);
  EXPECT_GE(idx, 0) << "missing function " << qualified;
  return idx;
}

/// The resolved callee qualified-names of one function, sorted.
std::vector<std::string> callees(const call_graph& g,
                                 const std::string& qualified) {
  std::vector<std::string> out;
  const int idx = g.index_of(qualified);
  if (idx < 0) return out;
  for (const int t : g.callees_of[static_cast<std::size_t>(idx)])
    out.push_back(g.functions[static_cast<std::size_t>(t)].qualified);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

TEST(CallGraph, ExtractsDefinitionsAcrossScopes) {
  const source_tree t = make_tree({
      {"src/core/a.cpp",
       "namespace sfp::core {\n"                            // 1
       "namespace {\n"                                      // 2
       "int helper(int x) { return x + 1; }\n"              // 3
       "}  // namespace\n"                                  // 4
       "struct widget {\n"                                  // 5
       "  int size() const { return n; }\n"                 // 6
       "  widget() : n(0) {}\n"                             // 7
       "  int n;\n"                                         // 8
       "};\n"                                               // 9
       "int outer(int x) {\n"                               // 10
       "  auto lam = [&] { return helper(x); };\n"          // 11
       "  return lam() + helper(x);\n"                      // 12
       "}\n"                                                // 13
       "}  // namespace sfp::core\n"},
  });
  const call_graph g = build_call_graph(t);

  const int helper = must_index(g, "sfp::core::helper");
  const int size = must_index(g, "sfp::core::widget::size");
  const int ctor = must_index(g, "sfp::core::widget::widget");
  const int outer = must_index(g, "sfp::core::outer");
  EXPECT_EQ(g.functions[static_cast<std::size_t>(helper)].line, 3);
  EXPECT_TRUE(g.functions[static_cast<std::size_t>(helper)].file_local);
  EXPECT_TRUE(g.functions[static_cast<std::size_t>(size)].member);
  EXPECT_TRUE(g.functions[static_cast<std::size_t>(ctor)].member);
  EXPECT_FALSE(g.functions[static_cast<std::size_t>(outer)].member);
  EXPECT_FALSE(g.functions[static_cast<std::size_t>(outer)].file_local);

  // The lambda body belongs to outer: both helper() calls (line 11 inside
  // the lambda, line 12 direct) resolve from outer to the file-local def.
  const auto outs = callees(g, "sfp::core::outer");
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], "sfp::core::helper");
  int helper_calls = 0;
  for (const auto& c : g.calls)
    if (c.caller == outer && c.written == "helper") ++helper_calls;
  EXPECT_EQ(helper_calls, 2);

  // function_at maps a byte inside outer's body back to outer.
  const auto& fo = g.functions[static_cast<std::size_t>(outer)];
  EXPECT_EQ(g.function_at(fo.file, fo.body_begin + 1), outer);
  EXPECT_EQ(g.function_at(fo.file, 0), -1);  // namespace line: no body
}

TEST(CallGraph, FileLocalAndSameFilePreferenceAndSuffixResolution) {
  const source_tree t = make_tree({
      {"src/core/a.cpp",
       "namespace sfp::core {\n"
       "namespace { int pick() { return 1; } }\n"
       "int user_a(int v) { return pick() + v; }\n"
       "}\n"},
      {"src/core/b.cpp",
       "namespace sfp::core {\n"
       "namespace { int pick() { return 2; } }\n"
       "int user_b(int v) { return pick() + v; }\n"
       "int cross(int v) { return core::user_a(v); }\n"
       "int lost(int v) { return std::max(v, 0); }\n"
       "}\n"},
  });
  const call_graph g = build_call_graph(t);
  // Each anonymous-namespace pick() only resolves from its own file.
  const int user_a = must_index(g, "sfp::core::user_a");
  const int user_b = must_index(g, "sfp::core::user_b");
  for (const auto& c : g.calls) {
    if (c.written != "pick") continue;
    ASSERT_EQ(c.targets.size(), 1u);
    const function_def& d =
        g.functions[static_cast<std::size_t>(c.targets[0])];
    EXPECT_EQ(d.file, g.functions[static_cast<std::size_t>(c.caller)].file)
        << "file-local pick() leaked across files";
  }
  (void)user_a;
  (void)user_b;
  // Qualified suffix match: core::user_a binds across files.
  const auto cross_callees = callees(g, "sfp::core::cross");
  ASSERT_EQ(cross_callees.size(), 1u);
  EXPECT_EQ(cross_callees[0], "sfp::core::user_a");
  // std:: calls stay unresolved by design.
  EXPECT_TRUE(callees(g, "sfp::core::lost").empty());
  EXPECT_GE(g.unresolved_calls, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency model
// ---------------------------------------------------------------------------

TEST(ConcurrencyModel, TracksGuardScopesRawLocksAndReach) {
  const source_tree t = make_tree({
      {"src/runtime/m.cpp",
       "namespace sfp::runtime {\n"                         // 1
       "int read_v(box& b) {\n"                             // 2
       "  std::lock_guard<std::mutex> g(b.mu);\n"           // 3
       "  return b.v;\n"                                    // 4
       "}\n"                                                // 5
       "void raw_pair(box& b) {\n"                          // 6
       "  b.mu.lock();\n"                                   // 7
       "  b.v = 1;\n"                                       // 8
       "  b.mu.unlock();\n"                                 // 9
       "  b.v = 2;\n"                                       // 10
       "}\n"                                                // 11
       "int relay(box& b) { return read_v(b); }\n"          // 12
       "}\n"},
      {"src/io/ent.cpp",
       "namespace sfp::io {\n"
       "int entropy() { return rand(); }\n"
       "}\n"},
      {"src/core/seed.cpp",
       "namespace sfp::core {\n"
       "int seed_of() { return io::entropy(); }\n"
       "}\n"},
  });
  const call_graph g = build_call_graph(t);
  const concurrency_model m = build_concurrency_model(t, g);

  // read_v: one guard acquisition on b.mu, held to the end of the body.
  const int read_v = must_index(g, "sfp::runtime::read_v");
  ASSERT_EQ(m.acquisitions_of[static_cast<std::size_t>(read_v)].size(), 1u);
  const lock_acquisition& ga = m.acquisitions[static_cast<std::size_t>(
      m.acquisitions_of[static_cast<std::size_t>(read_v)][0])];
  EXPECT_EQ(ga.expr, "b.mu");
  EXPECT_EQ(ga.line, 3);
  EXPECT_FALSE(ga.raw);
  EXPECT_EQ(ga.hold_end,
            g.functions[static_cast<std::size_t>(read_v)].body_end);

  // raw_pair: the raw .lock() ends at the matching .unlock(), so the
  // assignment on line 10 is outside the hold range.
  const int raw_pair = must_index(g, "sfp::runtime::raw_pair");
  ASSERT_EQ(m.acquisitions_of[static_cast<std::size_t>(raw_pair)].size(),
            1u);
  const lock_acquisition& ra = m.acquisitions[static_cast<std::size_t>(
      m.acquisitions_of[static_cast<std::size_t>(raw_pair)][0])];
  EXPECT_TRUE(ra.raw);
  EXPECT_EQ(ra.line, 7);
  const source_file& f = t.files[0];
  EXPECT_LT(ra.hold_end, f.stripped.find("b.v = 2"));
  EXPECT_GT(ra.hold_end, f.stripped.find("b.v = 1"));

  // Lock closure flows through calls: relay() transitively holds b.mu.
  const int relay = must_index(g, "sfp::runtime::relay");
  EXPECT_EQ(m.lock_closure[static_cast<std::size_t>(relay)].size(), 1u);

  // Nondet reach: entropy() is direct, seed_of() transitive via the call,
  // and the chain names the whole path down to the rand() site.
  const int entropy = must_index(g, "sfp::io::entropy");
  const int seed_of = must_index(g, "sfp::core::seed_of");
  EXPECT_TRUE(m.nondet_transitively[static_cast<std::size_t>(entropy)]);
  EXPECT_TRUE(m.nondet_transitively[static_cast<std::size_t>(seed_of)]);
  const std::string chain = nondet_chain(t, g, m, seed_of);
  EXPECT_NE(chain.find("sfp::core::seed_of"), std::string::npos);
  EXPECT_NE(chain.find("sfp::io::entropy"), std::string::npos);
  EXPECT_NE(chain.find("rand() [src/io/ent.cpp:2]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pass: determinism-transitive
// ---------------------------------------------------------------------------

TEST(DeterminismTransitivePass, FlagsCallChainIntoNondetAtTheCallSite) {
  const source_tree t = make_tree({
      {"src/io/ent.cpp",
       "namespace sfp::io {\n"
       "int entropy() { return rand(); }\n"
       "}\n"},
      {"src/core/seed.cpp",
       "namespace sfp::core {\n"                            // 1
       "int seed_of() {\n"                                  // 2
       "  return io::entropy();\n"                          // 3
       "}\n"                                                // 4
       "}\n"},
  });
  const call_graph g = build_call_graph(t);
  const concurrency_model m = build_concurrency_model(t, g);
  const auto findings = check_determinism_transitive(t, g, m);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism-transitive");
  EXPECT_EQ(findings[0].file, "src/core/seed.cpp");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("io::entropy"), std::string::npos);
  EXPECT_NE(findings[0].message.find("rand()"), std::string::npos);
  // The direct rand() inside src/io is the `determinism` pass's business
  // (and io is not a determinism module), not this pass's.
  EXPECT_TRUE(check_determinism(t).empty());
}

TEST(DeterminismTransitivePass, SilentOnPureChainsAndNonKernelCallers) {
  const source_tree t = make_tree({
      // A pure helper chain in a kernel module: silent.
      {"src/core/pure.cpp",
       "namespace sfp::core {\n"
       "int add(int a, int b) { return a + b; }\n"
       "int twice(int a) { return add(a, a); }\n"
       "}\n"},
      // The nondet chain exists but the caller is not a kernel module.
      {"src/io/ent.cpp",
       "namespace sfp::io {\n"
       "int entropy() { return rand(); }\n"
       "int reseed() { return entropy(); }\n"
       "}\n"},
  });
  const call_graph g = build_call_graph(t);
  const concurrency_model m = build_concurrency_model(t, g);
  EXPECT_TRUE(check_determinism_transitive(t, g, m).empty());
}

// ---------------------------------------------------------------------------
// Pass: lock-order
// ---------------------------------------------------------------------------

namespace {

source_tree lock_cycle_tree() {
  return make_tree({
      {"src/core/locks.cpp",
       "namespace sfp::core {\n"                            // 1
       "void ab(pair_t& p) {\n"                             // 2
       "  std::lock_guard<std::mutex> g1(p.a);\n"           // 3
       "  std::lock_guard<std::mutex> g2(p.b);\n"           // 4
       "}\n"                                                // 5
       "void ba(pair_t& p) {\n"                             // 6
       "  std::lock_guard<std::mutex> g1(p.b);\n"           // 7
       "  std::lock_guard<std::mutex> g2(p.a);\n"           // 8
       "}\n"                                                // 9
       "}\n"},
  });
}

}  // namespace

TEST(LockOrderPass, FlagsAbBaCycleWithWitness) {
  const source_tree t = lock_cycle_tree();
  const call_graph g = build_call_graph(t);
  const concurrency_model m = build_concurrency_model(t, g);
  const lock_order_graph lg = build_lock_order_graph(t, g, m);
  ASSERT_EQ(lg.mutexes.size(), 2u);
  ASSERT_EQ(lg.edges.size(), 2u);  // a->b and b->a
  ASSERT_FALSE(lg.cycle.empty());
  EXPECT_EQ(lg.cycle.front(), lg.cycle.back());

  const auto findings = check_lock_order(lg);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_EQ(findings[0].file, "src/core/locks.cpp");
  EXPECT_GT(findings[0].line, 0);
  EXPECT_NE(findings[0].message.find("p.a"), std::string::npos);
  EXPECT_NE(findings[0].message.find("p.b"), std::string::npos);
  EXPECT_NE(findings[0].message.find(" -> "), std::string::npos);
}

TEST(LockOrderPass, ConsistentOrderAndCallMediatedEdgesStayAcyclic) {
  const source_tree t = make_tree({
      {"src/core/locks.cpp",
       "namespace sfp::core {\n"
       "void lock_b_only(pair_t& p) {\n"
       "  std::lock_guard<std::mutex> g(p.b);\n"
       "}\n"
       "void ab(pair_t& p) {\n"
       "  std::lock_guard<std::mutex> g1(p.a);\n"
       "  lock_b_only(p);\n"
       "}\n"
       "}\n"},
  });
  const call_graph g = build_call_graph(t);
  const concurrency_model m = build_concurrency_model(t, g);
  const lock_order_graph lg = build_lock_order_graph(t, g, m);
  // The a->b edge comes from the CALL inside the hold range, not from a
  // second acquisition in the same body.
  ASSERT_EQ(lg.edges.size(), 1u);
  EXPECT_NE(lg.mutexes[static_cast<std::size_t>(lg.edges[0].from)]
                .find("p.a"),
            std::string::npos);
  EXPECT_NE(lg.mutexes[static_cast<std::size_t>(lg.edges[0].to)]
                .find("p.b"),
            std::string::npos);
  EXPECT_TRUE(lg.cycle.empty());
  EXPECT_TRUE(check_lock_order(lg).empty());
}

TEST(LockOrderPass, SelfEdgesFromShardedAliasesAreDropped) {
  // Two shard objects with the same member spelling alias to one
  // file-scoped identity; "s.mutex before s.mutex" must not become a
  // self-cycle (this is exactly the obs lock-sharded registry shape).
  const source_tree t = make_tree({
      {"src/obs/shards.cpp",
       "namespace sfp::obs {\n"
       "void bump(shard& s1, shard& s2) {\n"
       "  std::lock_guard<std::mutex> g1(s1.mutex);\n"
       "  std::lock_guard<std::mutex> g2(s2.mutex);\n"
       "}\n"
       "}\n"},
  });
  const call_graph g = build_call_graph(t);
  const concurrency_model m = build_concurrency_model(t, g);
  // s1.mutex and s2.mutex are distinct identities here; but the classic
  // alias case is the SAME spelling through a loop variable:
  const source_tree t2 = make_tree({
      {"src/obs/shards.cpp",
       "namespace sfp::obs {\n"
       "void bump_all(registry& r) {\n"
       "  for (auto& s : r.shards) {\n"
       "    std::lock_guard<std::mutex> g(s.mutex);\n"
       "    touch(s);\n"
       "  }\n"
       "  std::lock_guard<std::mutex> g2(r.shards[0].mutex);\n"
       "}\n"
       "void touch(shard& s) {\n"
       "  std::lock_guard<std::mutex> g(s.mutex);\n"
       "}\n"
       "}\n"},
  });
  const call_graph g2 = build_call_graph(t2);
  const concurrency_model m2 = build_concurrency_model(t2, g2);
  const lock_order_graph lg2 = build_lock_order_graph(t2, g2, m2);
  for (const lock_edge& e : lg2.edges) EXPECT_NE(e.from, e.to);
  EXPECT_TRUE(lg2.cycle.empty());
  (void)m;
}

// ---------------------------------------------------------------------------
// Pass: blocking-while-locked
// ---------------------------------------------------------------------------

TEST(BlockingWhileLockedPass, FlagsDirectBlockingInsideHoldRange) {
  const source_tree t = make_tree({
      {"src/seam/bw.cpp",
       "namespace sfp::seam {\n"                            // 1
       "void pump(std::mutex& m, channel& ch) {\n"          // 2
       "  std::lock_guard<std::mutex> g(m);\n"              // 3
       "  ch.recv(0);\n"                                    // 4
       "}\n"                                                // 5
       "}\n"},
  });
  const call_graph g = build_call_graph(t);
  const concurrency_model m = build_concurrency_model(t, g);
  const auto findings = check_blocking_while_locked(t, g, m);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "blocking-while-locked");
  EXPECT_EQ(findings[0].file, "src/seam/bw.cpp");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("recv"), std::string::npos);
  EXPECT_NE(findings[0].message.find("'m'"), std::string::npos);
}

TEST(BlockingWhileLockedPass, FlagsTransitiveBlockingThroughACall) {
  const source_tree t = make_tree({
      {"src/seam/bw.cpp",
       "namespace sfp::seam {\n"                            // 1
       "void drain(channel& ch) {\n"                        // 2
       "  ch.recv(0);\n"                                    // 3
       "}\n"                                                // 4
       "void pump(std::mutex& m, channel& ch) {\n"          // 5
       "  std::lock_guard<std::mutex> g(m);\n"              // 6
       "  drain(ch);\n"                                     // 7
       "}\n"                                                // 8
       "}\n"},
  });
  const call_graph g = build_call_graph(t);
  const concurrency_model m = build_concurrency_model(t, g);
  const auto findings = check_blocking_while_locked(t, g, m);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 7);  // at the call site, not inside drain
  EXPECT_NE(findings[0].message.find("drain"), std::string::npos);
  EXPECT_NE(findings[0].message.find("recv()"), std::string::npos);
}

TEST(BlockingWhileLockedPass, SilentInWaitSitesAndOutsideHoldRanges) {
  const std::string body =
      "namespace sfp::runtime {\n"
      "void pump(std::mutex& m, channel& ch) {\n"
      "  { std::lock_guard<std::mutex> g(m); }\n"  // scope ends first
      "  ch.recv(0);\n"
      "}\n"
      "}\n";
  const source_tree t = make_tree({
      // Designated wait site: the fabric's own cv loops live here.
      {"src/runtime/world.cpp",
       "namespace sfp::runtime {\n"
       "void fence(std::mutex& m, cv_t& cv) {\n"
       "  std::unique_lock<std::mutex> lk(m);\n"
       "  cv.wait(lk);\n"
       "}\n"
       "}\n"},
      // Hold range closed before the blocking call: silent.
      {"src/runtime/tight.cpp", body},
  });
  const call_graph g = build_call_graph(t);
  const concurrency_model m = build_concurrency_model(t, g);
  EXPECT_TRUE(check_blocking_while_locked(t, g, m).empty());
}

// ---------------------------------------------------------------------------
// Pass: unchecked-status
// ---------------------------------------------------------------------------

TEST(UncheckedStatusPass, FlagsOnlyStatementPositionDrops) {
  const source_tree t = make_tree({
      {"src/runtime/drop.cpp",
       "void pump(transport& t) {\n"                        // 1
       "  t.recv_or_quiescent(5);\n"                        // 2: dropped
       "  bool ok = t.recv_or_quiescent(5);\n"              // 3: captured
       "  if (t.recv_or_quiescent(5)) { use(); }\n"         // 4: branched
       "  (void)t.recv_or_quiescent(5);\n"                  // 5: explicit
       "  while (ch.try_recv(msg)) { use(); }\n"            // 6: branched
       "  ch.try_recv(msg);\n"                              // 7: dropped
       "}\n"},
      // Out-of-scope tree: statement drops in src/core are fine.
      {"src/core/elsewhere.cpp",
       "void f(transport& t) {\n"
       "  t.recv_or_quiescent(5);\n"
       "}\n"},
  });
  // The pass scans per status-call name, so sort before asserting lines.
  std::vector<finding> findings = check_unchecked_status(t);
  std::sort(findings.begin(), findings.end());
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "unchecked-status");
  EXPECT_EQ(findings[0].file, "src/runtime/drop.cpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 7);
  EXPECT_NE(findings[0].message.find("recv_or_quiescent"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule registry: one catalogue, no drift
// ---------------------------------------------------------------------------

TEST(RuleRegistry, CatalogueHasUniqueSlugsAndKnownSuppressibility) {
  const auto& catalogue = rule_catalogue();
  std::vector<std::string> slugs;
  for (const rule_info& r : catalogue) {
    slugs.emplace_back(r.slug);
    EXPECT_NE(std::string(r.summary), "") << r.slug;
  }
  std::vector<std::string> sorted = slugs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end())
      << "duplicate slug in the catalogue";
  ASSERT_NE(rule_by_slug("layering-cycle"), nullptr);
  EXPECT_FALSE(rule_by_slug("layering-cycle")->suppressible);
  EXPECT_FALSE(rule_by_slug("layering-unknown")->suppressible);
  ASSERT_NE(rule_by_slug("lock-order"), nullptr);
  EXPECT_TRUE(rule_by_slug("lock-order")->suppressible);
  EXPECT_EQ(rule_by_slug("no-such-rule"), nullptr);
  EXPECT_EQ(rule_by_slug(""), nullptr);
}

TEST(RuleRegistry, EveryRuleRunAllEmitsAppearsInTheCatalogueExactlyOnce) {
  // A mega-fixture that makes every pass fire at least once, then checks
  // the emitted slug set is exactly the catalogue — so neither side can
  // drift: a new pass without a catalogue entry fails here, and a
  // catalogue entry no pass can emit fails here too.
  const source_tree t = make_tree({
      // layering-unknown + layering + layering-cycle
      {"src/mystery/x.cpp", "#include \"util/u.hpp\"\n"},
      {"src/util/up.cpp", "#include \"graph/csr.hpp\"\n"},
      {"src/core/c.hpp", "#pragma once\n#include \"graph/g.hpp\"\n"},
      {"src/graph/g.hpp", "#pragma once\n#include \"core/c.hpp\"\n"},
      // determinism + contract-purity
      {"src/core/bad.cpp",
       "int f() { return std::rand(); }\n"
       "void g(int n) { SFP_REQUIRE(++n > 0, \"impure\"); }\n"},
      // runtime-throw
      {"src/runtime/thrower.cpp", "void f() {\n  throw 1;\n}\n"},
      // audit-header-loop
      {"src/core/hot.hpp",
       "#pragma once\n"
       "inline int sum(int n) {\n"
       "  int s = 0;\n"
       "  for (int i = 0; i < n; ++i) {\n"
       "    SFP_AUDIT(s >= 0, \"per-iteration\");\n"
       "    s += i;\n"
       "  }\n"
       "  return s;\n"
       "}\n"},
      // pragma-once
      {"src/core/nopragma.hpp", "int x;\n"},
      // blocking
      {"src/seam/foo.cpp", "void f(world& w) {\n  w.barrier();\n}\n"},
      // raw-assert
      {"src/util/a.cpp", "#include <cassert>\n"},
      // transport-discipline
      {"src/seam/fab.cpp", "void f(int n) {\n  runtime::world w(n);\n}\n"},
      // determinism-transitive (chain core -> io -> rand)
      {"src/io/ent.cpp",
       "namespace sfp::io {\nint entropy() { return rand(); }\n}\n"},
      {"src/core/seed.cpp",
       "namespace sfp::core {\nint seed_of() { return io::entropy(); }\n}\n"},
      // lock-order
      {"src/core/locks.cpp",
       "namespace sfp::core {\n"
       "void ab(pair_t& p) {\n"
       "  std::lock_guard<std::mutex> g1(p.a);\n"
       "  std::lock_guard<std::mutex> g2(p.b);\n"
       "}\n"
       "void ba(pair_t& p) {\n"
       "  std::lock_guard<std::mutex> g1(p.b);\n"
       "  std::lock_guard<std::mutex> g2(p.a);\n"
       "}\n"
       "}\n"},
      // blocking-while-locked
      {"src/seam/bw.cpp",
       "namespace sfp::seam {\n"
       "void pump(std::mutex& m, channel& ch) {\n"
       "  std::lock_guard<std::mutex> g(m);\n"
       "  ch.recv(0);\n"
       "}\n"
       "}\n"},
      // unchecked-status
      {"src/runtime/drop.cpp",
       "void pump(transport& t) {\n  t.recv_or_quiescent(5);\n}\n"},
      // overflow-arith (v3 flow pass)
      {"src/core/ovf.cpp",
       "bool above(std::int64_t s, int nparts, std::int64_t total) {\n"
       "  return s * nparts >= total;\n"
       "}\n"},
      // use-after-move (v3 flow pass)
      {"src/core/uam.cpp",
       "void f(std::string name) {\n"
       "  sink(std::move(name));\n"
       "  log(name);\n"
       "}\n"},
      // suppression-format (v3): tag naming a rule that does not exist
      {"src/core/tagbad.cpp",
       "int y;  // lint: not-a-rule-ok — stale annotation\n"},
  });
  const analysis_result r = run_all(t, transport_manifest());
  std::vector<std::string> emitted;
  for (const auto& f : r.findings) emitted.push_back(f.rule);
  std::sort(emitted.begin(), emitted.end());
  emitted.erase(std::unique(emitted.begin(), emitted.end()), emitted.end());

  std::vector<std::string> catalogue;
  for (const rule_info& ri : rule_catalogue())
    catalogue.emplace_back(ri.slug);
  std::sort(catalogue.begin(), catalogue.end());
  EXPECT_EQ(emitted, catalogue);
}

// ---------------------------------------------------------------------------
// --rule filtering
// ---------------------------------------------------------------------------

TEST(FilterRules, KeepsOnlyTheNamedRules) {
  const source_tree t = make_tree({
      {"src/core/nopragma.hpp", "int x;\n"},
      {"src/core/bad.cpp", "int f() { return std::rand(); }\n"},
  });
  analysis_result r = run_all(t, fixture_manifest());
  ASSERT_EQ(r.findings.size(), 2u);
  filter_rules(r, {"determinism"});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "determinism");
  filter_rules(r, {"pragma-once"});
  EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------------------------
// Baseline: --write-baseline round trip + suppressed-inline counting
// ---------------------------------------------------------------------------

TEST(Baseline, WriteBaselineRoundTripReportsEverythingAsBaselined) {
  const source_tree t = make_tree({
      {"src/core/nopragma.hpp", "int x;\n"},
      {"src/core/bad.cpp", "int f() { return std::rand(); }\n"},
  });
  analysis_result first = run_all(t, fixture_manifest());
  ASSERT_EQ(first.findings.size(), 2u);
  // What the CLI does for --write-baseline: serialize the findings, then
  // a fresh scan against the parsed-back baseline must come up clean
  // (exit code 0 path) with every finding accounted as baselined.
  const io::json_value doc = baseline_to_json(first.findings);
  const std::vector<baseline_entry> bl =
      baseline_from_json(io::parse_json(io::write_json(doc, 2)));
  ASSERT_EQ(bl.size(), 2u);
  analysis_result second = run_all(t, fixture_manifest());
  const std::vector<finding> baselined = apply_baseline(second, bl);
  EXPECT_TRUE(second.findings.empty());
  ASSERT_EQ(baselined.size(), 2u);
  const std::string text = render_text(second, baselined);
  EXPECT_NE(text.find("0 finding(s)"), std::string::npos);
  EXPECT_NE(text.find("2 baselined"), std::string::npos);
}

TEST(Baseline, SuppressedInlineCountingIsPerTaggedLine) {
  const source_tree t = make_tree({
      {"src/seam/noted.cpp",
       "void f(world& w) {\n"
       "  w.barrier();  // lint: blocking-ok — drain point\n"
       "  w.barrier();  // lint: blocking-ok — second drain\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed.size(), 2u);
  const std::string text = render_text(r, {});
  EXPECT_NE(text.find("2 suppressed inline"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Report: callgraph / lockgraph sections
// ---------------------------------------------------------------------------

TEST(Report, JsonCarriesCallgraphAndLockgraphSections) {
  const source_tree t = lock_cycle_tree();
  const analysis_result r = run_all(t, fixture_manifest());
  const io::json_value back =
      io::parse_json(io::write_json(report_to_json(r, {}), 2));
  EXPECT_EQ(back.at("version").number, 3);
  const io::json_value& cg = back.at("callgraph");
  EXPECT_EQ(cg.at("functions").number, 2);  // ab and ba
  EXPECT_GE(cg.at("call_sites").number, 0);
  const io::json_value& lg = back.at("lockgraph");
  EXPECT_EQ(lg.at("mutexes").number, 2);
  EXPECT_EQ(lg.at("acquisitions").number, 4);
  ASSERT_EQ(lg.at("edges").array.size(), 2u);
  const io::json_value& e = lg.at("edges").array[0];
  EXPECT_FALSE(e.at("held").string.empty());
  EXPECT_FALSE(e.at("acquired").string.empty());
  EXPECT_EQ(e.at("file").string, "src/core/locks.cpp");
  ASSERT_GE(lg.at("cycle").array.size(), 3u);
  EXPECT_EQ(lg.at("cycle").array.front().string,
            lg.at("cycle").array.back().string);
  // v3 additions: CFG coverage summary and the per-rule stats block.
  const io::json_value& cfg = back.at("cfg");
  EXPECT_EQ(cfg.at("functions").number,
            static_cast<double>(r.cfgs.size()));
  EXPECT_GT(cfg.at("nodes").number, 0);
  EXPECT_GT(cfg.at("edges").number, 0);
  const io::json_value& stats = back.at("rule_stats");
  EXPECT_EQ(stats.object.size(), rule_catalogue().size());
  EXPECT_GE(stats.at("lock-order").at("findings").number, 1);
  EXPECT_EQ(stats.at("use-after-move").at("findings").number, 0);
}

TEST(Report, StatsTableListsEveryCatalogueRuleIncludingZeroRows) {
  const source_tree t = make_tree({
      {"src/core/nopragma.hpp", "int x;\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const std::string table = render_stats(r, {});
  for (const rule_info& info : rule_catalogue())
    EXPECT_NE(table.find(info.slug), std::string::npos) << info.slug;
  // Header plus one row per rule.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'),
            static_cast<long>(rule_catalogue().size()) + 1);
}

// ---------------------------------------------------------------------------
// Statement CFG construction
// ---------------------------------------------------------------------------

namespace {

/// The CFG run_all built for the function with this name, or nullptr.
const function_cfg* cfg_named(const analysis_result& r,
                              const std::string& name) {
  for (const function_cfg& c : r.cfgs)
    if (r.calls.functions[static_cast<std::size_t>(c.function)].name ==
        name)
      return &c;
  return nullptr;
}

}  // namespace

TEST(Cfg, StraightLineBodyIsAChainFromEntryToExit) {
  const source_tree t = make_tree({
      {"src/core/straight.cpp",
       "int f(int a) {\n"
       "  int b = a + 1;\n"
       "  int c = b + 2;\n"
       "  return c;\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const function_cfg* c = cfg_named(r, "f");
  ASSERT_NE(c, nullptr);
  // entry, exit, two stmts, one return.
  ASSERT_EQ(c->nodes.size(), 5u);
  EXPECT_EQ(c->nodes[0].k, cfg_node::kind::entry);
  EXPECT_EQ(c->nodes[1].k, cfg_node::kind::exit);
  EXPECT_EQ(c->num_edges(), 4u);
  // The return node is the only predecessor of exit.
  ASSERT_EQ(c->nodes[1].pred.size(), 1u);
  const cfg_node& ret =
      c->nodes[static_cast<std::size_t>(c->nodes[1].pred[0])];
  EXPECT_EQ(ret.k, cfg_node::kind::ret);
  EXPECT_EQ(ret.line, 4);
}

TEST(Cfg, IfElseMakesADiamondWithThenSuccessorMarked) {
  const source_tree t = make_tree({
      {"src/core/diamond.cpp",
       "int g(int a) {\n"
       "  if (a > 0) {\n"
       "    a = 1;\n"
       "  } else {\n"
       "    a = 2;\n"
       "  }\n"
       "  return a;\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const function_cfg* c = cfg_named(r, "g");
  ASSERT_NE(c, nullptr);
  const cfg_node* branch = nullptr;
  for (const cfg_node& n : c->nodes)
    if (n.k == cfg_node::kind::branch) branch = &n;
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->line, 2);
  ASSERT_EQ(branch->succ.size(), 2u);
  ASSERT_GE(branch->then_succ, 0);
  const cfg_node& then_node =
      c->nodes[static_cast<std::size_t>(branch->then_succ)];
  EXPECT_EQ(then_node.line, 3);
  // Both arms rejoin at the return.
  const cfg_node& other = c->nodes[static_cast<std::size_t>(
      branch->succ[0] == branch->then_succ ? branch->succ[1]
                                           : branch->succ[0])];
  EXPECT_EQ(other.line, 5);
  ASSERT_EQ(then_node.succ.size(), 1u);
  ASSERT_EQ(other.succ.size(), 1u);
  EXPECT_EQ(then_node.succ[0], other.succ[0]);
}

TEST(Cfg, WhileLoopHasABackEdgeAndAFallthroughExit) {
  const source_tree t = make_tree({
      {"src/core/loopy.cpp",
       "int h(int n) {\n"
       "  int s = 0;\n"
       "  while (s < n) {\n"
       "    s += 1;\n"
       "  }\n"
       "  return s;\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const function_cfg* c = cfg_named(r, "h");
  ASSERT_NE(c, nullptr);
  int head = -1;
  for (std::size_t n = 0; n < c->nodes.size(); ++n)
    if (c->nodes[n].k == cfg_node::kind::loop) head = static_cast<int>(n);
  ASSERT_GE(head, 0);
  const cfg_node& loop = c->nodes[static_cast<std::size_t>(head)];
  ASSERT_GE(loop.then_succ, 0);
  const cfg_node& body =
      c->nodes[static_cast<std::size_t>(loop.then_succ)];
  EXPECT_EQ(body.line, 4);
  // Back edge: the body flows into the loop head again.
  EXPECT_NE(std::find(body.succ.begin(), body.succ.end(), head),
            body.succ.end());
  // Fallthrough: the head also reaches the return.
  bool reaches_ret = false;
  for (const int s : loop.succ)
    if (c->nodes[static_cast<std::size_t>(s)].k == cfg_node::kind::ret)
      reaches_ret = true;
  EXPECT_TRUE(reaches_ret);
}

TEST(Cfg, CollectLocalsSeesParametersDeclarationsAndBindings) {
  const source_tree t = make_tree({
      {"src/core/locals.cpp",
       "void f(std::int64_t total, int& out) {\n"
       "  int small = 0;\n"
       "  for (auto& [key, val] : table) {\n"
       "    small += val;\n"
       "  }\n"
       "  out = small;\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  ASSERT_EQ(r.calls.functions.size(), 1u);
  const function_def& fn = r.calls.functions[0];
  const source_file& f = t.files[0];
  const std::string blanked = blank_preprocessor(f.stripped);
  const std::vector<local_decl> locals = collect_locals(f, blanked, fn);
  const auto named = [&locals](const std::string& n) -> const local_decl* {
    for (const local_decl& d : locals)
      if (d.name == n) return &d;
    return nullptr;
  };
  ASSERT_NE(named("total"), nullptr);
  EXPECT_TRUE(named("total")->parameter);
  EXPECT_EQ(named("total")->type, "std::int64_t");
  ASSERT_NE(named("out"), nullptr);
  EXPECT_TRUE(named("out")->reference);
  ASSERT_NE(named("small"), nullptr);
  EXPECT_EQ(named("small")->type, "int");
  // Structured binding names are locals too (reference semantics).
  ASSERT_NE(named("key"), nullptr);
  ASSERT_NE(named("val"), nullptr);
  EXPECT_TRUE(named("val")->reference);
}

// ---------------------------------------------------------------------------
// Dataflow solver
// ---------------------------------------------------------------------------

namespace {

/// entry(0) -> branch(2) -> {then(3), else(4)} -> join(5) -> exit(1).
function_cfg diamond_cfg() {
  function_cfg c;
  c.nodes.resize(6);
  c.nodes[0].k = cfg_node::kind::entry;
  c.nodes[1].k = cfg_node::kind::exit;
  c.nodes[2].k = cfg_node::kind::branch;
  const auto link = [&c](int a, int b) {
    c.nodes[static_cast<std::size_t>(a)].succ.push_back(b);
    c.nodes[static_cast<std::size_t>(b)].pred.push_back(a);
  };
  link(0, 2);
  link(2, 3);
  link(2, 4);
  link(3, 5);
  link(4, 5);
  link(5, 1);
  c.nodes[2].then_succ = 3;
  return c;
}

}  // namespace

TEST(Dataflow, ForwardMayUnionsOverPaths) {
  const function_cfg c = diamond_cfg();
  dataflow_problem p;
  p.num_facts = 1;
  p.forward = true;
  p.may = true;
  p.gen = make_fact_sets(c, 1);
  p.kill = make_fact_sets(c, 1);
  p.gen[3][0] = 1;  // fact born on the then-arm only
  const dataflow_result s = solve_dataflow(c, p);
  EXPECT_EQ(s.in[4][0], 0);  // never reaches the else-arm
  EXPECT_EQ(s.in[5][0], 1);  // may-join: one path suffices
  EXPECT_EQ(s.in[1][0], 1);
}

TEST(Dataflow, ForwardMustIntersectsOverPaths) {
  const function_cfg c = diamond_cfg();
  dataflow_problem p;
  p.num_facts = 2;
  p.forward = true;
  p.may = false;
  p.gen = make_fact_sets(c, 2);
  p.kill = make_fact_sets(c, 2);
  p.boundary.assign(2, 0);
  p.gen[3][0] = 1;  // fact 0 on the then-arm only
  p.gen[3][1] = 1;  // fact 1 on both arms
  p.gen[4][1] = 1;
  const dataflow_result s = solve_dataflow(c, p);
  EXPECT_EQ(s.in[5][0], 0);  // must-join: one arm missing kills it
  EXPECT_EQ(s.in[5][1], 1);
}

TEST(Dataflow, EdgeKillDropsAFactOnOneBranchOnly) {
  const function_cfg c = diamond_cfg();
  dataflow_problem p;
  p.num_facts = 1;
  p.forward = true;
  p.may = true;
  p.gen = make_fact_sets(c, 1);
  p.kill = make_fact_sets(c, 1);
  p.boundary.assign(1, 1);  // fact holds at entry
  p.edge_kill[{2, 3}] = {1};  // the branch condition refutes it then-wards
  const dataflow_result s = solve_dataflow(c, p);
  EXPECT_EQ(s.in[3][0], 0);
  EXPECT_EQ(s.in[4][0], 1);
  EXPECT_EQ(s.in[5][0], 1);  // may-join keeps the surviving path
}

TEST(Dataflow, BackwardMustRequiresTheFactOnEveryPath) {
  const function_cfg c = diamond_cfg();
  dataflow_problem p;
  p.num_facts = 2;
  p.forward = false;
  p.may = false;
  p.gen = make_fact_sets(c, 2);
  p.kill = make_fact_sets(c, 2);
  p.boundary.assign(2, 0);
  p.gen[3][0] = 1;  // read on the then-arm only
  p.gen[3][1] = 1;  // read on both arms
  p.gen[4][1] = 1;
  const dataflow_result s = solve_dataflow(c, p);
  EXPECT_EQ(s.out[2][0], 0);  // some successor path never reads it
  EXPECT_EQ(s.out[2][1], 1);  // every successor path reads it
}

// ---------------------------------------------------------------------------
// overflow-arith pass
// ---------------------------------------------------------------------------

TEST(OverflowArithPass, FlagsProductsOfScaledOperandsAndTaintedChains) {
  const source_tree t = make_tree({
      {"src/core/ovf.cpp",
       "bool above(std::int64_t s, int nparts, std::int64_t total) {\n"
       "  return s * nparts >= total;\n"                            // 2
       "}\n"
       "std::int64_t chain(std::int64_t k, std::int64_t w) {\n"
       "  auto half = k / 2;\n"                                     // 5
       "  return half * w;\n"                                       // 6
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const auto findings = with_rule(r.findings, "overflow-arith");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/core/ovf.cpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("s * nparts"), std::string::npos);
  EXPECT_EQ(findings[1].line, 6);  // taint flowed through `half`
}

TEST(OverflowArithPass, FlagsUncastNarrowingFromScaledValues) {
  const source_tree t = make_tree({
      {"src/sfc/nar.cpp",
       "int shrink(std::int64_t total) {\n"
       "  int t = total / 3;\n"                                     // 2
       "  return t;\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const auto findings = with_rule(r.findings, "overflow-arith");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("'t'"), std::string::npos);
}

TEST(OverflowArithPass, SilentOnCheckedCastSubscriptAndComparisonUses) {
  const source_tree t = make_tree({
      {"src/core/clean.cpp",
       // checked_mul is the sanctioned spelling.
       "bool above(std::int64_t s, int nparts, std::int64_t total) {\n"
       "  return checked_mul(s, nparts) >= total;\n"
       "}\n"
       // static_cast at a proven-small boundary is deliberate.
       "int shrink(std::int64_t total) {\n"
       "  const int t = static_cast<int>(total / 3);\n"
       "  return t;\n"
       "}\n"
       // A subscript *index* does not scale the element it selects,
       // and a comparison operand produces a bool, not a product.
       "int pick(const std::vector<int>& a, std::size_t i) {\n"
       "  const int left = i > 0 ? a[i - 1] : -1;\n"
       "  return left;\n"
       "}\n"
       // Float arithmetic cannot wrap int64.
       "double dist(double x, std::size_t i) {\n"
       "  const double dx = x - 1.0;\n"
       "  return dx * dx;\n"
       "}\n"},
      // Out-of-scope module: the pass only covers core + sfc.
      {"src/runtime/other.cpp",
       "bool above(std::int64_t s, int nparts, std::int64_t total) {\n"
       "  return s * nparts >= total;\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  EXPECT_TRUE(with_rule(r.findings, "overflow-arith").empty());
}

TEST(OverflowArithPass, SuppressibleInline) {
  const source_tree t = make_tree({
      {"src/core/ovf.cpp",
       "bool above(std::int64_t s, int nparts) {\n"
       "  return s * nparts > 0;  // lint: overflow-arith-ok — bounded\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  EXPECT_TRUE(with_rule(r.findings, "overflow-arith").empty());
  EXPECT_EQ(with_rule(r.suppressed, "overflow-arith").size(), 1u);
}

// ---------------------------------------------------------------------------
// use-after-move pass
// ---------------------------------------------------------------------------

TEST(UseAfterMovePass, FlagsReadsReachableFromAMove) {
  const source_tree t = make_tree({
      {"src/core/uam.cpp",
       "void f(std::string name) {\n"
       "  sink(std::move(name));\n"                                 // 2
       "  log(name);\n"                                             // 3
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const auto findings = with_rule(r.findings, "use-after-move");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("'name'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("line 2"), std::string::npos);
}

TEST(UseAfterMovePass, ConditionalMoveStillFlagsTheJoinRead) {
  const source_tree t = make_tree({
      {"src/core/branchy.cpp",
       "void f(std::string name, bool fast) {\n"
       "  if (fast) {\n"
       "    sink(std::move(name));\n"
       "  }\n"
       "  log(name);\n"                                             // 5
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const auto findings = with_rule(r.findings, "use-after-move");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5);  // may-analysis: one bad path suffices
}

TEST(UseAfterMovePass, SilentOnReassignSelfMoveAndSiblingScopes) {
  const source_tree t = make_tree({
      {"src/core/fine.cpp",
       // Reassignment rebinds before the read.
       "void f(std::string name) {\n"
       "  sink(std::move(name));\n"
       "  name = fresh();\n"
       "  log(name);\n"
       "}\n"
       // Self-reassignment through a transform never leaves a hole.
       "void g(std::vector<int> tails) {\n"
       "  tails = transform(std::move(tails));\n"
       "  use(tails);\n"
       "}\n"
       // Same-named locals in loop iterations rebind at the declaration.
       "void h(const std::vector<int>& xs) {\n"
       "  for (const int x : xs) {\n"
       "    item v;\n"
       "    v.payload = x;\n"
       "    push(std::move(v));\n"
       "  }\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  EXPECT_TRUE(with_rule(r.findings, "use-after-move").empty())
      << render_text(r, {});
}

TEST(UseAfterMovePass, SuppressibleInline) {
  const source_tree t = make_tree({
      {"src/core/meant.cpp",
       "void f(std::string name) {\n"
       "  sink(std::move(name));\n"
       "  log(name);  // lint: use-after-move-ok — logs the husk on purpose\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  EXPECT_TRUE(with_rule(r.findings, "use-after-move").empty());
  EXPECT_EQ(with_rule(r.suppressed, "use-after-move").size(), 1u);
}

// ---------------------------------------------------------------------------
// unchecked-status: the path-sensitive upgrade
// ---------------------------------------------------------------------------

TEST(StatusPathsPass, FlagsAStatusReadOnOnlySomePaths) {
  const source_tree t = make_tree({
      {"src/runtime/somepaths.cpp",
       "void pump(transport& t, bool verbose) {\n"
       "  bool ok = t.try_recv(5);\n"                               // 2
       "  if (verbose) {\n"
       "    log(ok);\n"
       "  }\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const auto findings = with_rule(r.findings, "unchecked-status");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("every path"), std::string::npos);
}

TEST(StatusPathsPass, SilentWhenEveryPathReadsTheStatus) {
  const source_tree t = make_tree({
      {"src/runtime/allpaths.cpp",
       "void pump(transport& t) {\n"
       "  bool ok = t.try_recv(5);\n"
       "  if (!ok) {\n"
       "    return;\n"
       "  }\n"
       "  deliver();\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  EXPECT_TRUE(with_rule(r.findings, "unchecked-status").empty())
      << render_text(r, {});
}

// ---------------------------------------------------------------------------
// suppression-format pass
// ---------------------------------------------------------------------------

TEST(SuppressionFormatPass, ClassifiesEveryDeviationFromTheCanonicalForm) {
  const source_tree t = make_tree({
      {"src/core/tags.cpp",
       "int a;  // lint: blocking\n"                     // 1 malformed
       "int b;  // lint: not-a-rule-ok — x\n"            // 2 unknown rule
       "int c;  // lint: blocking-ok\n"                  // 3 no reason
       "int d;  // lint: blocking-ok - drain point\n"    // 4 bad separator
       "int e;  // lint: blocking-ok — drain point\n"},  // 5 canonical
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const auto findings = with_rule(r.findings, "suppression-format");
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("malformed"), std::string::npos);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_NE(findings[1].message.find("unknown rule"), std::string::npos);
  EXPECT_EQ(findings[2].line, 3);
  EXPECT_NE(findings[2].message.find("no reason"), std::string::npos);
  EXPECT_EQ(findings[3].line, 4);
  EXPECT_NE(findings[3].message.find("separator"), std::string::npos);
}

TEST(SuppressionFormatPass, IgnoresProseMentionsOfTheTagGrammar) {
  const source_tree t = make_tree({
      {"src/core/prose.cpp",
       "// Suppress with `lint: <slug>-ok — <reason>` like sfplint: docs\n"
       "int x;\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  EXPECT_TRUE(with_rule(r.findings, "suppression-format").empty())
      << render_text(r, {});
}

// ---------------------------------------------------------------------------
// Baseline covers the v3 rules too
// ---------------------------------------------------------------------------

TEST(Baseline, FlowRuleFindingsAreBaselineable) {
  const source_tree t = make_tree({
      {"src/core/uam.cpp",
       "void f(std::string name) {\n"
       "  sink(std::move(name));\n"
       "  log(name);\n"
       "}\n"},
      {"src/core/ovf.cpp",
       "bool above(std::int64_t s, int nparts, std::int64_t total) {\n"
       "  return s * nparts >= total;\n"
       "}\n"},
  });
  analysis_result first = run_all(t, fixture_manifest());
  ASSERT_EQ(first.findings.size(), 2u);
  const std::vector<baseline_entry> bl = baseline_from_json(io::parse_json(
      io::write_json(baseline_to_json(first.findings), 2)));
  analysis_result second = run_all(t, fixture_manifest());
  const std::vector<finding> baselined = apply_baseline(second, bl);
  EXPECT_TRUE(second.findings.empty());
  EXPECT_EQ(baselined.size(), 2u);
}

// ---------------------------------------------------------------------------
// Autofix planning and application
// ---------------------------------------------------------------------------

TEST(Fix, RepairsPragmaOnceAndSeparatorsIdempotently) {
  namespace fs = std::filesystem;
  const fs::path root = make_temp_dir("sfplint_fix_test");
  fs::create_directories(root / "src" / "core");
  {
    std::ofstream h(root / "src" / "core" / "bare.hpp", std::ios::binary);
    h << "int x;\n";
    std::ofstream c(root / "src" / "core" / "tagged.cpp", std::ios::binary);
    c << "int y;  // lint: blocking-ok -- drain point\n";
  }
  const source_tree tree = load_tree(root.string());
  const analysis_result r = run_all(tree, fixture_manifest());
  const fix_plan plan = plan_fixes(tree, r.findings);
  ASSERT_EQ(plan.edits.size(), 2u);
  EXPECT_TRUE(plan.skipped.empty());
  apply_fixes(root.string(), plan);

  const source_tree repaired = load_tree(root.string());
  const analysis_result r2 = run_all(repaired, fixture_manifest());
  EXPECT_TRUE(with_rule(r2.findings, "pragma-once").empty());
  EXPECT_TRUE(with_rule(r2.findings, "suppression-format").empty());
  // Idempotence: a second plan over the repaired tree is empty.
  EXPECT_TRUE(plan_fixes(repaired, r2.findings).edits.empty());

  std::ifstream fixed(root / "src" / "core" / "tagged.cpp",
                      std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(fixed)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("// lint: blocking-ok \xE2\x80\x94 drain point"),
            std::string::npos)
      << text;
  fs::remove_all(root);
}

TEST(Fix, SkipsWhatItCannotRepairMechanically) {
  const source_tree t = make_tree({
      {"src/core/stuck.cpp",
       "int a;  // lint: blocking-ok\n"           // no reason to keep
       "int b;  // lint: not-a-rule-ok - x\n"},   // unknown rule
  });
  const analysis_result r = run_all(t, fixture_manifest());
  const fix_plan plan = plan_fixes(t, r.findings);
  EXPECT_TRUE(plan.edits.empty());
  ASSERT_EQ(plan.skipped.size(), 2u);
  const std::string rendered = render_fix_plan(plan);
  EXPECT_NE(rendered.find("no reason"), std::string::npos);
  EXPECT_NE(rendered.find("not autofixable"), std::string::npos);
  EXPECT_NE(rendered.find("0 edit(s), 2 skipped"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SARIF export
// ---------------------------------------------------------------------------

TEST(Sarif, DocumentCarriesSchemaDriverRulesAndSuppressions) {
  const source_tree t = make_tree({
      {"src/core/nopragma.hpp", "int x;\n"},
      {"src/seam/noted.cpp",
       "void f(world& w) {\n"
       "  w.barrier();  // lint: blocking-ok — drain point\n"
       "}\n"},
  });
  const analysis_result r = run_all(t, fixture_manifest());
  ASSERT_EQ(r.findings.size(), 1u);
  ASSERT_EQ(r.suppressed.size(), 1u);
  finding fake = r.findings[0];
  const io::json_value doc = io::parse_json(
      io::write_json(sarif_document(r, {fake}), 2));
  EXPECT_EQ(doc.at("$schema").string,
            "https://json.schemastore.org/sarif-2.1.0.json");
  EXPECT_EQ(doc.at("version").string, "2.1.0");
  ASSERT_EQ(doc.at("runs").array.size(), 1u);
  const io::json_value& run = doc.at("runs").array[0];
  const io::json_value& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").string, "sfplint");
  EXPECT_EQ(driver.at("rules").array.size(), rule_catalogue().size());
  // findings + suppressed + baselined all surface as results.
  ASSERT_EQ(run.at("results").array.size(), 3u);
  const io::json_value& res = run.at("results").array[0];
  EXPECT_EQ(res.at("ruleId").string, "pragma-once");
  EXPECT_EQ(res.at("level").string, "error");
  const io::json_value& loc =
      res.at("locations").array[0].at("physicalLocation");
  EXPECT_EQ(loc.at("artifactLocation").at("uri").string,
            "src/core/nopragma.hpp");
  EXPECT_EQ(loc.at("region").at("startLine").number, 1);
  // ruleIndex agrees with the catalogue position of the ruleId.
  const std::size_t idx =
      static_cast<std::size_t>(res.at("ruleIndex").number);
  EXPECT_EQ(rule_catalogue()[idx].slug, res.at("ruleId").string);
  const io::json_value& sup = run.at("results").array[1];
  EXPECT_EQ(sup.at("suppressions").array[0].at("kind").string, "inSource");
  const io::json_value& ext = run.at("results").array[2];
  EXPECT_EQ(ext.at("suppressions").array[0].at("kind").string, "external");
}

// ---------------------------------------------------------------------------
// Differential mode: changed-line filtering
// ---------------------------------------------------------------------------

TEST(ChangedLines, ParsesUnifiedDiffHunksIncludingDeletions) {
  const std::string diff =
      "diff --git a/src/core/a.cpp b/src/core/a.cpp\n"
      "--- a/src/core/a.cpp\n"
      "+++ b/src/core/a.cpp\n"
      "@@ -10,2 +12,3 @@ void f() {\n"
      "+x\n+y\n+z\n"
      "@@ -40 +44 @@ void g() {\n"
      "+w\n"
      "diff --git a/src/core/gone.cpp b/src/core/gone.cpp\n"
      "--- a/src/core/gone.cpp\n"
      "+++ /dev/null\n"
      "@@ -1,5 +0,0 @@\n"
      "diff --git a/src/core/del.cpp b/src/core/del.cpp\n"
      "--- a/src/core/del.cpp\n"
      "+++ b/src/core/del.cpp\n"
      "@@ -7,2 +7,0 @@ void h() {\n";
  const changed_lines c = parse_unified_diff(diff);
  EXPECT_TRUE(c.contains("src/core/a.cpp", 12));
  EXPECT_TRUE(c.contains("src/core/a.cpp", 14));
  EXPECT_FALSE(c.contains("src/core/a.cpp", 15));
  EXPECT_TRUE(c.contains("src/core/a.cpp", 44));
  EXPECT_FALSE(c.contains("src/core/a.cpp", 45));
  EXPECT_FALSE(c.contains("src/core/gone.cpp", 1));  // deleted file
  EXPECT_FALSE(c.contains("src/core/del.cpp", 7));   // deletion-only hunk
  EXPECT_FALSE(c.contains("src/core/other.cpp", 12));
}

TEST(ChangedLines, CollectsFromARealGitRevision) {
  namespace fs = std::filesystem;
  const fs::path root = make_temp_dir("sfplint_diff_test");
  fs::create_directories(root / "src" / "core");
  const auto sh = [&root](const std::string& cmd) {
    const std::string full = "cd '" + root.string() + "' && " + cmd +
                             " >/dev/null 2>&1";
    ASSERT_EQ(std::system(full.c_str()), 0) << cmd;
  };
  {
    std::ofstream f(root / "src" / "core" / "a.cpp", std::ios::binary);
    f << "int a;\nint b;\nint c;\n";
  }
  sh("git init -q && git add -A");
  sh("git -c user.email=t@t -c user.name=t commit -qm seed");
  {
    std::ofstream f(root / "src" / "core" / "a.cpp", std::ios::binary);
    f << "int a;\nint bb;\nint c;\nint d;\n";
  }
  std::string err;
  const changed_lines c =
      collect_git_changed_lines(root.string(), "HEAD", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(c.contains("src/core/a.cpp", 2));
  EXPECT_TRUE(c.contains("src/core/a.cpp", 4));
  EXPECT_FALSE(c.contains("src/core/a.cpp", 1));
  EXPECT_FALSE(c.contains("src/core/a.cpp", 3));

  // Bad revision: a clear error, no findings filter.
  const changed_lines bad =
      collect_git_changed_lines(root.string(), "no-such-rev", &err);
  EXPECT_FALSE(err.empty());
  EXPECT_TRUE(bad.empty());

  // Shell metacharacters in the revision are rejected outright.
  const changed_lines evil =
      collect_git_changed_lines(root.string(), "HEAD'; rm -rf /", &err);
  EXPECT_EQ(err, "invalid characters in revision");
  EXPECT_TRUE(evil.empty());
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// Whole-repo smoke test: the committed tree must be clean.
// ---------------------------------------------------------------------------

#ifdef SFCPART_SOURCE_DIR
TEST(RepoSmoke, CommittedTreeIsCleanModuloBaseline) {
  const std::string root = SFCPART_SOURCE_DIR;
  const source_tree tree = load_tree(root);
  ASSERT_GT(tree.files.size(), 100u) << "repo scan looks truncated";
  const layering_manifest manifest =
      load_manifest(root + "/tools/layering.json");
  analysis_result r = run_all(tree, manifest);
  const std::vector<baseline_entry> bl =
      load_baseline(root + "/tools/sfplint_baseline.json");
  const std::vector<finding> baselined = apply_baseline(r, bl);
  EXPECT_TRUE(r.findings.empty()) << render_text(r, baselined);
  // The dogfooded module graph is one connected component.
  EXPECT_TRUE(graph::is_connected(r.graph.undirected));
  // Every justified exception carries its rule tag inline.
  for (const auto& s : r.suppressed) EXPECT_FALSE(s.rule.empty());
  // The cross-TU semantic model covers the repo: hundreds of extracted
  // definitions, a usable resolution rate, a populated lock model, and an
  // acyclic whole-repo lock order. (The function-level graph is NOT one
  // component — isolated leaf helpers are normal — so no connectivity
  // assertion here, unlike the module graph.)
  EXPECT_GT(r.calls.functions.size(), 300u);
  EXPECT_GT(r.calls.resolved_calls, 1000u);
  EXPECT_GT(r.concurrency.acquisitions.size(), 10u);
  EXPECT_GE(r.lock_order.edges.size(), 1u);
  EXPECT_TRUE(r.lock_order.cycle.empty());
}
#endif
