#pragma once
// Minimal JSON support: a dynamic value type with a strict recursive-descent
// parser, plus the string-escaping helper the exporters share. This exists
// so the trace/metrics artifacts can be both *written* (io/trace_io.hpp)
// and *validated structurally* (tests parse what the exporters produced)
// without an external dependency.
//
// Scope is deliberately small: UTF-8 passthrough, doubles for all numbers,
// \uXXXX escapes accepted but not converted beyond Latin-1. That covers
// everything this library emits.

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sfp::io {

/// Parsed JSON value. Containers own their children by value.
struct json_value {
  enum class kind { null, boolean, number, string, array, object };

  kind type = kind::null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<json_value> array;
  std::map<std::string, json_value> object;

  bool is_null() const { return type == kind::null; }
  bool is_object() const { return type == kind::object; }
  bool is_array() const { return type == kind::array; }
  bool is_number() const { return type == kind::number; }
  bool is_string() const { return type == kind::string; }

  /// Object member access; throws sfp::contract_error when absent or when
  /// this value is not an object.
  const json_value& at(const std::string& key) const;
  bool has(const std::string& key) const;
};

namespace detail {
[[noreturn]] void throw_bad_integer(std::string_view key,
                                    const std::string& lo,
                                    const std::string& hi);
}  // namespace detail

/// Checked integer read: the value of `v` as an `Int` in [lo, hi]. Throws
/// sfp::contract_error naming `key` unless `v` is a number with no
/// fractional part inside that range, so reading 1e20 or 0.7 into an int is
/// an error, not an out-of-range or truncating cast.
template <std::integral Int>
Int json_integer(const json_value& v, std::string_view key,
                 Int lo = std::numeric_limits<Int>::min(),
                 Int hi = std::numeric_limits<Int>::max()) {
  // max + 1.0 rounds to exactly 2^digits, so [min, top) is exactly the set
  // of doubles a static_cast<Int> can hold.
  constexpr double top =
      static_cast<double>(std::numeric_limits<Int>::max()) + 1.0;
  const double x = v.number;
  if (!v.is_number() || x != std::trunc(x) ||
      x < static_cast<double>(std::numeric_limits<Int>::min()) || x >= top ||
      static_cast<Int>(x) < lo || static_cast<Int>(x) > hi)
    detail::throw_bad_integer(key, std::to_string(lo), std::to_string(hi));
  return static_cast<Int>(x);
}

/// Parse a complete JSON document; throws sfp::contract_error with a byte
/// offset on malformed input or trailing garbage.
json_value parse_json(std::string_view text);

/// Escape `s` for embedding inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

/// Factories so builders of documents (reports, baselines) stay terse.
json_value json_string(std::string s);
json_value json_number(double n);
json_value json_bool(bool b);
json_value json_array();
json_value json_object();

/// Serialize a value back to JSON text. indent == 0 emits a compact
/// single-line document; indent > 0 pretty-prints with that many spaces
/// per nesting level. Numbers print round-trip exactly (integral values
/// without a decimal point); NaN/Inf are rejected (JSON cannot carry
/// them). Output re-parses to an equal value.
std::string write_json(const json_value& v, int indent = 0);

/// Serialize to a file; throws sfp::contract_error on I/O failure.
void write_json_file(const json_value& v, const std::string& path,
                     int indent = 2);

}  // namespace sfp::io
