#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/contract.hpp"

namespace sfp {

namespace {
bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  double value = 0.0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  return ec == std::errc{} && ptr == last;
}

std::string pad(const std::string& s, std::size_t width, bool right_align) {
  if (s.size() >= width) return s;
  std::string padding(width - s.size(), ' ');
  return right_align ? padding + s : s + padding;
}
}  // namespace

table::table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  SFP_REQUIRE(!headers_.empty(), "table needs at least one column");
}

table& table::new_row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

table& table::add(std::string cell) {
  SFP_REQUIRE(!rows_.empty(), "call new_row() before add()");
  SFP_REQUIRE(rows_.back().size() < headers_.size(),
              "row has more cells than columns");
  rows_.back().push_back(std::move(cell));
  return *this;
}

table& table::add(const char* cell) { return add(std::string(cell)); }

table& table::add(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return add(std::string(buf));
}

table& table::add(std::int64_t value) { return add(std::to_string(value)); }
table& table::add(std::uint64_t value) { return add(std::to_string(value)); }
table& table::add(int value) { return add(std::to_string(value)); }

std::string table::str() const {
  const std::size_t ncols = headers_.size();
  std::vector<std::size_t> width(ncols);
  std::vector<bool> right(ncols, true);
  for (std::size_t c = 0; c < ncols; ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
      if (!looks_numeric(row[c])) right[c] = false;
    }
  }

  std::ostringstream os;
  for (std::size_t c = 0; c < ncols; ++c) {
    if (c) os << "  ";
    os << pad(headers_[c], width[c], right[c]);
  }
  os << '\n';
  for (std::size_t c = 0; c < ncols; ++c) {
    if (c) os << "  ";
    os << std::string(width[c], '-');
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << "  ";
      os << pad(row[c], width[c], right[c]);
    }
    os << '\n';
  }
  return os.str();
}

void table::print(std::ostream& os) const { os << str(); }

std::string format_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f %s", bytes, units[u]);
  return std::string(buf);
}

}  // namespace sfp
