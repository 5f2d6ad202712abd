// End-to-end tests for tools/bench_guard: the exit-code contract CI
// scripts depend on (0 within tolerance, 1 drift/structure, 2 usage/I-O),
// the tolerance-floor slack boundary, --ignore, and the --update
// regeneration mode (fresh values win, ignored keys keep their old
// reference values). The binary path comes in via BENCH_GUARD_BIN.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "io/json.hpp"

namespace {

namespace fs = std::filesystem;

class BenchGuard : public ::testing::Test {
 protected:
  // A fresh directory per test: ctest runs every test as its own process,
  // concurrently under -j, so a shared fixed path would be removed from
  // under a sibling test.
  void SetUp() override {
    std::string tmpl = (fs::temp_directory_path() / "bench_guard_test.XXXXXX")
                           .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr) << tmpl;
    dir = tmpl;
  }
  void TearDown() override { fs::remove_all(dir); }

  std::string write(const std::string& name, const std::string& text) {
    const fs::path p = dir / name;
    std::ofstream out(p, std::ios::binary);
    out << text;
    return p.string();
  }

  static int run(const std::string& extra_args) {
    const std::string cmd = std::string(BENCH_GUARD_BIN) + " " +
                            extra_args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  static sfp::io::json_value read_json(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return sfp::io::parse_json(buf.str());
  }

  fs::path dir;
};

TEST_F(BenchGuard, ExitZeroWhenWithinTolerance) {
  const std::string ref = write("ref.json", R"({"cut": 100, "lb": 1.02})");
  const std::string fresh =
      write("fresh.json", R"({"cut": 101, "lb": 1.03})");
  EXPECT_EQ(run("--fresh=" + fresh + " --reference=" + ref), 0);
}

TEST_F(BenchGuard, ExitOneOnDriftAndOnStructuralMismatch) {
  const std::string ref = write("ref.json", R"({"cut": 100})");
  // Numeric drift far past floor + tolerance*max.
  const std::string drift = write("drift.json", R"({"cut": 500})");
  EXPECT_EQ(run("--fresh=" + drift + " --reference=" + ref), 1);
  // Missing key.
  const std::string missing = write("missing.json", R"({})");
  EXPECT_EQ(run("--fresh=" + missing + " --reference=" + ref), 1);
  // Extra key.
  const std::string extra =
      write("extra.json", R"({"cut": 100, "new_metric": 1})");
  EXPECT_EQ(run("--fresh=" + extra + " --reference=" + ref), 1);
  // Kind change.
  const std::string kind = write("kind.json", R"({"cut": "100"})");
  EXPECT_EQ(run("--fresh=" + kind + " --reference=" + ref), 1);
  // Array length change.
  const std::string ref2 = write("ref2.json", R"({"xs": [1, 2]})");
  const std::string shorter = write("short.json", R"({"xs": [1]})");
  EXPECT_EQ(run("--fresh=" + shorter + " --reference=" + ref2), 1);
}

TEST_F(BenchGuard, ExitTwoOnUsageAndIoErrors) {
  const std::string ref = write("ref.json", R"({"cut": 100})");
  EXPECT_EQ(run("--fresh=" + ref), 2);  // missing --reference
  EXPECT_EQ(run("--reference=" + ref), 2);
  EXPECT_EQ(run("--fresh=" + ref + " --reference=" + dir.string() +
                "/no_such.json"),
            2);
  EXPECT_EQ(run("--fresh=" + ref + " --reference=" + ref +
                " --tolerance=-1"),
            2);
  const std::string bad = write("bad.json", "{not json");
  EXPECT_EQ(run("--fresh=" + bad + " --reference=" + ref), 2);
}

TEST_F(BenchGuard, SlackIsFloorPlusToleranceTimesMagnitude) {
  const std::string ref = write("ref.json", R"({"v": 10})");
  // tolerance 0, floor 2: |12 - 10| == 2 is allowed (<=), 12.5 is not.
  const std::string at = write("at.json", R"({"v": 12})");
  EXPECT_EQ(
      run("--fresh=" + at + " --reference=" + ref +
          " --tolerance=0 --floor=2"),
      0);
  const std::string past = write("past.json", R"({"v": 12.5})");
  EXPECT_EQ(
      run("--fresh=" + past + " --reference=" + ref +
          " --tolerance=0 --floor=2"),
      1);
  // floor 0, tolerance 0.5: slack scales with max(|fresh|, |ref|), so 15
  // vs 10 passes (slack 7.5) while 31 vs 10 fails (drift 21 > slack 15.5).
  const std::string rel = write("rel.json", R"({"v": 15})");
  EXPECT_EQ(
      run("--fresh=" + rel + " --reference=" + ref +
          " --tolerance=0.5 --floor=0"),
      0);
  const std::string far = write("far.json", R"({"v": 31})");
  EXPECT_EQ(
      run("--fresh=" + far + " --reference=" + ref +
          " --tolerance=0.5 --floor=0"),
      1);
}

TEST_F(BenchGuard, IgnoredKeysAreSkippedAtEveryDepth) {
  const std::string ref = write(
      "ref.json",
      R"({"cut": 100, "time_usec": 5, "inner": {"time_usec": 9, "q": 1}})");
  const std::string fresh = write(
      "fresh.json",
      R"({"cut": 100, "time_usec": 9999, "inner": {"time_usec": 1, "q": 1}})");
  // time_usec is ignored by default, wherever it appears.
  EXPECT_EQ(run("--fresh=" + fresh + " --reference=" + ref), 0);
  // Overriding --ignore puts time_usec back on the gate.
  EXPECT_EQ(run("--fresh=" + fresh + " --reference=" + ref +
                " --ignore=other_key"),
            1);
}

TEST_F(BenchGuard, UpdateRegeneratesPreservingIgnoredKeys) {
  const std::string ref = write(
      "ref.json",
      R"({"cut": 100, "time_usec": 5, "inner": {"time_usec": 9, "q": 1}})");
  const std::string fresh = write(
      "fresh.json",
      R"({"cut": 140, "time_usec": 777, "inner": {"time_usec": 8, "q": 3},
          "new_metric": 2})");
  ASSERT_EQ(run("--fresh=" + fresh + " --reference=" + ref + " --update"),
            0);
  const sfp::io::json_value back = read_json(ref);
  EXPECT_EQ(back.at("cut").number, 140);        // fresh value wins
  EXPECT_EQ(back.at("time_usec").number, 5);    // ignored key preserved
  EXPECT_EQ(back.at("inner").at("time_usec").number, 9);
  EXPECT_EQ(back.at("inner").at("q").number, 3);
  EXPECT_EQ(back.at("new_metric").number, 2);   // new keys appear
  // The regenerated reference now gates the fresh artifact cleanly.
  EXPECT_EQ(run("--fresh=" + fresh + " --reference=" + ref), 0);
}

TEST_F(BenchGuard, UpdateBootstrapsAMissingReference) {
  const std::string fresh = write("fresh.json", R"({"cut": 7})");
  const std::string ref = (dir / "new_ref.json").string();
  ASSERT_EQ(run("--fresh=" + fresh + " --reference=" + ref + " --update"),
            0);
  EXPECT_EQ(read_json(ref).at("cut").number, 7);
}

}  // namespace
