// Tests for the I/O module: CSV round-trips and strict numeric parsing,
// partition persistence, gnuplot artifact generation, and the JSON writer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "core/sfc_partition.hpp"
#include "io/csv.hpp"
#include "io/gnuplot.hpp"
#include "io/json.hpp"
#include "io/partition_io.hpp"
#include "mesh/cubed_sphere.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::io;

/// `name` inside a directory private to this test process, removed at
/// exit: ctest runs every test as its own process, concurrently under -j,
/// so files under fixed names in the shared temp dir would collide.
std::string temp_path(const std::string& name) {
  struct private_dir {
    std::filesystem::path path;
    private_dir() {
      std::string tmpl =
          (std::filesystem::temp_directory_path() / "sfcpart_io_test.XXXXXX")
              .string();
      if (::mkdtemp(tmpl.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed for " + tmpl);
      path = tmpl;
    }
    ~private_dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const private_dir dir;
  return (dir.path / name).string();
}

TEST(Csv, WriteAndReadBack) {
  csv_writer w({"nproc", "speedup", "method"});
  w.new_row().add(8).add(7.962, 4).add("SFC");
  w.new_row().add(std::int64_t{768}).add(489.0, 4).add("KWAY");
  std::ostringstream os;
  w.write(os);

  std::istringstream is(os.str());
  const csv_data data = read_csv(is);
  ASSERT_EQ(data.headers.size(), 3u);
  EXPECT_EQ(data.column("speedup"), 1u);
  ASSERT_EQ(data.rows.size(), 2u);
  EXPECT_EQ(data.rows[0][0], "8");
  EXPECT_EQ(data.rows[1][2], "KWAY");
  EXPECT_THROW(data.column("missing"), contract_error);
}

TEST(Csv, RejectsMalformedCells) {
  csv_writer w({"a"});
  w.new_row();
  EXPECT_THROW(w.add("has,comma"), contract_error);
  EXPECT_THROW(csv_writer({"bad,header"}), contract_error);
  EXPECT_THROW(csv_writer({}), contract_error);
  csv_writer w2({"a"});
  EXPECT_THROW(w2.add("x"), contract_error);  // no row started
}

TEST(Csv, FileRoundTrip) {
  const std::string path = temp_path("sfcpart_csv_test.csv");
  csv_writer w({"x", "y"});
  w.new_row().add(1).add(2.5, 3);
  w.write_file(path);
  const csv_data data = read_csv_file(path);
  ASSERT_EQ(data.rows.size(), 1u);
  EXPECT_EQ(data.rows[0][1], "2.5");
  std::filesystem::remove(path);
  EXPECT_THROW(read_csv_file(path), contract_error);
}

TEST(PartitionIo, RoundTripsExactly) {
  const mesh::cubed_sphere m(4);
  const auto p = core::sfc_partition(m, 24);
  std::ostringstream os;
  save_partition(os, p);
  std::istringstream is(os.str());
  const auto q = load_partition(is);
  EXPECT_EQ(q.num_parts, p.num_parts);
  EXPECT_EQ(q.part_of, p.part_of);
}

TEST(PartitionIo, FileRoundTrip) {
  const std::string path = temp_path("sfcpart_partition_test.csv");
  const mesh::cubed_sphere m(2);
  const auto p = core::sfc_partition(m, 6);
  save_partition_file(path, p);
  const auto q = load_partition_file(path);
  EXPECT_EQ(q.part_of, p.part_of);
  std::filesystem::remove(path);
}

TEST(PartitionIo, RejectsCorruptStreams) {
  const auto expect_bad = [](const std::string& content) {
    std::istringstream is(content);
    EXPECT_THROW(load_partition(is), contract_error) << content;
  };
  expect_bad("");
  expect_bad("garbage\nelement,part\n0,0\n");
  expect_bad("# sfcpart-partition v1 num_vertices=2 num_parts=1\nwrong\n0,0\n1,0\n");
  // Label out of range.
  expect_bad(
      "# sfcpart-partition v1 num_vertices=2 num_parts=1\nelement,part\n0,0\n1,5\n");
  // Missing element.
  expect_bad(
      "# sfcpart-partition v1 num_vertices=2 num_parts=1\nelement,part\n0,0\n");
  // Duplicate element.
  expect_bad(
      "# sfcpart-partition v1 num_vertices=2 num_parts=1\nelement,part\n0,0\n0,0\n");
}

TEST(Gnuplot, WritesDatAndScript) {
  const std::string base = temp_path("sfcpart_gnuplot_test");
  plot_spec spec;
  spec.title = "Speedup";
  spec.ylabel = "speedup";
  spec.series.push_back({"SFC", {2, 4, 8}, {2.0, 4.0, 7.9}});
  spec.series.push_back({"METIS", {2, 4, 8}, {2.0, 3.9, 7.5}});
  write_gnuplot(base, spec);

  std::ifstream gp(base + ".gp");
  ASSERT_TRUE(gp.good());
  std::stringstream script;
  script << gp.rdbuf();
  EXPECT_NE(script.str().find("index 1"), std::string::npos);
  EXPECT_NE(script.str().find("SFC"), std::string::npos);

  std::ifstream dat(base + ".dat");
  ASSERT_TRUE(dat.good());
  std::stringstream data;
  data << dat.rdbuf();
  EXPECT_NE(data.str().find("# METIS"), std::string::npos);

  std::filesystem::remove(base + ".gp");
  std::filesystem::remove(base + ".dat");
}

TEST(CsvParse, Int64AcceptsWholeCellsOnly) {
  EXPECT_EQ(parse_int64("42"), 42);
  EXPECT_EQ(parse_int64("-7"), -7);
  EXPECT_EQ(parse_int64("  13\t"), 13);  // surrounding blanks are fine
  EXPECT_EQ(parse_int64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());

  EXPECT_THROW(parse_int64(""), contract_error);
  EXPECT_THROW(parse_int64("   "), contract_error);
  EXPECT_THROW(parse_int64("12abc"), contract_error);    // trailing garbage
  EXPECT_THROW(parse_int64("1 2"), contract_error);      // interior blank
  EXPECT_THROW(parse_int64("3.5"), contract_error);      // not an integer
  EXPECT_THROW(parse_int64("abc"), contract_error);
  // One past int64 max: must throw, not wrap.
  EXPECT_THROW(parse_int64("9223372036854775808"), contract_error);
  EXPECT_THROW(parse_int64("99999999999999999999"), contract_error);
}

TEST(CsvParse, DoubleRejectsGarbageOverflowAndNonFinite) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double(" -1e-3 "), -1e-3);
  EXPECT_DOUBLE_EQ(parse_double("7"), 7.0);

  EXPECT_THROW(parse_double(""), contract_error);
  EXPECT_THROW(parse_double("1.5.2"), contract_error);   // trailing garbage
  EXPECT_THROW(parse_double("1.5x"), contract_error);
  EXPECT_THROW(parse_double("1e999"), contract_error);   // overflow
  EXPECT_THROW(parse_double("nan"), contract_error);     // non-finite
  EXPECT_THROW(parse_double("inf"), contract_error);
}

TEST(CsvParse, TypedAccessorsCheckBoundsAndRaggedRows) {
  std::stringstream ss("id,score\n3,1.5\n4\n");
  const csv_data d = read_csv(ss);
  EXPECT_EQ(d.int64_at(0, "id"), 3);
  EXPECT_DOUBLE_EQ(d.double_at(0, "score"), 1.5);
  EXPECT_EQ(d.int64_at(1, "id"), 4);
  EXPECT_THROW(d.double_at(1, "score"), contract_error);  // ragged row
  EXPECT_THROW(d.int64_at(2, "id"), contract_error);      // row out of range
  EXPECT_THROW(d.int64_at(0, "missing"), contract_error);
  EXPECT_THROW(d.int64_at(0, "score"), contract_error);   // "1.5" not integer
}

TEST(Json, WriterRoundTripsThroughParser) {
  json_value doc = json_object();
  doc.object["name"] = json_string("a \"quoted\"\nvalue");
  doc.object["count"] = json_number(42);
  doc.object["ratio"] = json_number(0.1);
  doc.object["big"] = json_number(9007199254740992.0);  // 2^53
  doc.object["ok"] = json_bool(true);
  doc.object["none"] = json_value{};
  doc.object["items"] = json_array();
  doc.object["items"].array.push_back(json_number(-3));
  doc.object["items"].array.push_back(json_string(""));

  for (const int indent : {0, 2}) {
    const json_value back = parse_json(write_json(doc, indent));
    EXPECT_EQ(back.at("name").string, doc.at("name").string);
    EXPECT_EQ(back.at("count").number, 42);
    EXPECT_DOUBLE_EQ(back.at("ratio").number, 0.1);
    EXPECT_EQ(back.at("big").number, 9007199254740992.0);
    EXPECT_TRUE(back.at("ok").boolean);
    EXPECT_TRUE(back.at("none").is_null());
    ASSERT_EQ(back.at("items").array.size(), 2u);
    EXPECT_EQ(back.at("items").array[0].number, -3);
  }
}

TEST(Json, WriterFormatsIntegralNumbersWithoutDecimalPoint) {
  json_value v = json_array();
  v.array.push_back(json_number(1234567));
  v.array.push_back(json_number(2.5));
  const std::string text = write_json(v);
  EXPECT_NE(text.find("1234567"), std::string::npos);
  EXPECT_EQ(text.find("1234567."), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
}

TEST(Json, WriterRejectsNonFiniteNumbers) {
  EXPECT_THROW(write_json(json_number(std::nan(""))), contract_error);
  EXPECT_THROW(write_json(json_number(
                   std::numeric_limits<double>::infinity())),
               contract_error);
}

TEST(Json, IntegerReaderRejectsFractionsAndOutOfRangeValues) {
  const auto num = [](const char* text) { return parse_json(text); };
  EXPECT_EQ(json_integer<int>(num("3"), "k"), 3);
  EXPECT_EQ(json_integer<int>(num("-1"), "k", -1), -1);
  EXPECT_EQ(json_integer<int>(num("2147483647"), "k"), 2147483647);
  EXPECT_EQ(json_integer<std::int64_t>(num("1e15"), "k"), 1000000000000000);
  // The largest double below 2^64 still fits a uint64; 2^64 does not.
  EXPECT_EQ(json_integer<std::uint64_t>(num("18446744073709549568"), "k"),
            18446744073709549568ull);
  EXPECT_THROW(json_integer<std::uint64_t>(num("18446744073709551616"), "k"),
               contract_error);
  EXPECT_THROW(json_integer<std::uint64_t>(num("1e30"), "k"), contract_error);
  EXPECT_THROW(json_integer<std::uint64_t>(num("-1"), "k"), contract_error);
  EXPECT_THROW(json_integer<int>(num("2147483648"), "k"), contract_error);
  EXPECT_THROW(json_integer<int>(num("1e20"), "k"), contract_error);
  EXPECT_THROW(json_integer<int>(num("0.7"), "k"), contract_error);
  EXPECT_THROW(json_integer<int>(num("-0.5"), "k"), contract_error);
  EXPECT_THROW(json_integer<int>(num("\"3\""), "k"), contract_error);
  EXPECT_THROW(json_integer<int>(num("-2"), "k", -1), contract_error);
  EXPECT_THROW(json_integer<int>(num("5"), "k", 0, 4), contract_error);
  try {
    json_integer<int>(num("1.5"), "chaos schedule: nth", 0);
    FAIL() << "1.5 is not an integer";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("chaos schedule: nth"),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, WriteFileProducesParseableDocument) {
  const std::string path = temp_path("sfcpart_json_writer_test.json");
  json_value doc = json_object();
  doc.object["k"] = json_string("v");
  write_json_file(doc, path);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_EQ(parse_json(buf.str()).at("k").string, "v");
  std::filesystem::remove(path);
}

TEST(Gnuplot, RejectsBadSeries) {
  plot_spec empty;
  EXPECT_THROW(write_gnuplot(temp_path("x"), empty), contract_error);
  plot_spec mismatched;
  mismatched.series.push_back({"s", {1, 2}, {1}});
  EXPECT_THROW(write_gnuplot(temp_path("x"), mismatched), contract_error);
}

}  // namespace
