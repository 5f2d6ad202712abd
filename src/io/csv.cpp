#include "io/csv.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/contract.hpp"

namespace sfp::io {

csv_writer::csv_writer(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  SFP_REQUIRE(!headers_.empty(), "csv needs at least one column");
  for (const auto& h : headers_)
    SFP_REQUIRE(h.find(',') == std::string::npos &&
                    h.find('\n') == std::string::npos,
                "csv headers must not contain commas or newlines");
}

csv_writer& csv_writer::new_row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

csv_writer& csv_writer::add(const std::string& value) {
  SFP_REQUIRE(!rows_.empty(), "call new_row() before add()");
  SFP_REQUIRE(rows_.back().size() < headers_.size(),
              "row has more cells than columns");
  SFP_REQUIRE(value.find(',') == std::string::npos &&
                  value.find('\n') == std::string::npos,
              "csv cells must not contain commas or newlines");
  rows_.back().push_back(value);
  return *this;
}

csv_writer& csv_writer::add(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, value);
  return add(std::string(buf));
}

csv_writer& csv_writer::add(std::int64_t value) {
  return add(std::to_string(value));
}

csv_writer& csv_writer::add(int value) { return add(std::to_string(value)); }

void csv_writer::write(std::ostream& os) const {
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << (c ? "," : "") << headers_[c];
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      os << (c ? "," : "") << row[c];
    os << '\n';
  }
}

void csv_writer::write_file(const std::string& path) const {
  std::ofstream os(path);
  SFP_REQUIRE(os.good(), "cannot open csv file for writing: " + path);
  write(os);
  os.flush();
  SFP_REQUIRE(os.good(), "failed writing csv file: " + path);
}

namespace {

std::string_view trim(std::string_view cell) {
  while (!cell.empty() && (cell.front() == ' ' || cell.front() == '\t'))
    cell.remove_prefix(1);
  while (!cell.empty() &&
         (cell.back() == ' ' || cell.back() == '\t' || cell.back() == '\r'))
    cell.remove_suffix(1);
  return cell;
}

}  // namespace

std::int64_t parse_int64(std::string_view cell) {
  const std::string_view body = trim(cell);
  SFP_REQUIRE(!body.empty(), "csv: empty cell where an integer was expected");
  std::int64_t value = 0;
  const auto res =
      std::from_chars(body.data(), body.data() + body.size(), value);
  SFP_REQUIRE(res.ec != std::errc::result_out_of_range,
              "csv: integer out of range: " + std::string(cell));
  SFP_REQUIRE(res.ec == std::errc() && res.ptr == body.data() + body.size(),
              "csv: not a valid integer: " + std::string(cell));
  return value;
}

double parse_double(std::string_view cell) {
  const std::string_view body = trim(cell);
  SFP_REQUIRE(!body.empty(), "csv: empty cell where a number was expected");
  double value = 0;
  const auto res =
      std::from_chars(body.data(), body.data() + body.size(), value);
  SFP_REQUIRE(res.ec != std::errc::result_out_of_range,
              "csv: number out of range: " + std::string(cell));
  SFP_REQUIRE(res.ec == std::errc() && res.ptr == body.data() + body.size(),
              "csv: not a valid number: " + std::string(cell));
  SFP_REQUIRE(std::isfinite(value),
              "csv: non-finite number: " + std::string(cell));
  return value;
}

const std::string& csv_data::cell_at(std::size_t row,
                                     const std::string& col) const {
  SFP_REQUIRE(row < rows.size(), "csv: row index out of range");
  const std::size_t c = column(col);
  SFP_REQUIRE(c < rows[row].size(),
              "csv: row " + std::to_string(row) + " has no cell for column " +
                  col);
  return rows[row][c];
}

std::int64_t csv_data::int64_at(std::size_t row, const std::string& col) const {
  return parse_int64(cell_at(row, col));
}

double csv_data::double_at(std::size_t row, const std::string& col) const {
  return parse_double(cell_at(row, col));
}

std::size_t csv_data::column(const std::string& name) const {
  for (std::size_t c = 0; c < headers.size(); ++c)
    if (headers[c] == name) return c;
  SFP_REQUIRE(false, "csv column not found: " + name);
  return 0;
}

csv_data read_csv(std::istream& is) {
  csv_data out;
  std::string line;
  bool first = true;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    if (!line.empty() && line.back() == ',') cells.emplace_back();
    if (first) {
      out.headers = std::move(cells);
      first = false;
    } else {
      out.rows.push_back(std::move(cells));
    }
  }
  SFP_REQUIRE(!out.headers.empty(), "csv stream had no header row");
  return out;
}

csv_data read_csv_file(const std::string& path) {
  std::ifstream is(path);
  SFP_REQUIRE(is.good(), "cannot open csv file for reading: " + path);
  return read_csv(is);
}

}  // namespace sfp::io
