// Fuzz surface 3: the SFC schedule-string parser (sfc/parse.hpp).
//
// Properties checked beyond "no crash":
//   * malformed specs are rejected with a diagnostic (try_parse_schedule
//     returns false with an error), never an exception or a crash;
//   * accepted schedules respect the 2^20 side bound;
//   * format_schedule / parse_schedule round-trip exactly;
//   * small accepted schedules generate curves that pass the full
//     Hamiltonian-path + unit-step validator, and a curve_locator range
//     walk of the whole face — from position 0, and from a start drawn
//     from the input bytes and wrapped around — visits generate()'s cells
//     in order.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "sfc/curve.hpp"
#include "sfc/parse.hpp"
#include "sfc/point_query.hpp"
#include "sfc/validate.hpp"
#include "util/contract.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view spec(reinterpret_cast<const char*>(data), size);

  sfp::sfc::schedule s;
  std::string error;
  if (!sfp::sfc::try_parse_schedule(spec, s, &error)) {
    if (error.empty()) __builtin_trap();  // rejection must carry a message
    return 0;
  }

  const int side = sfp::sfc::side_of(s);
  if (side < 2 || side > (1 << 20)) __builtin_trap();

  // Canonical spec round-trip.
  const std::string canonical = sfp::sfc::format_schedule(s);
  const sfp::sfc::schedule reparsed = sfp::sfc::parse_schedule(canonical);
  if (reparsed != s) __builtin_trap();

  // Small schedules: generate and fully validate the curve, then walk it.
  if (side <= 64) {
    const std::vector<sfp::sfc::cell> curve = sfp::sfc::generate(s);
    const sfp::diagnostic d = sfp::sfc::validate_curve(curve, side);
    if (!d.ok) __builtin_trap();

    const sfp::sfc::curve_locator locator(s);
    const auto n = static_cast<std::int64_t>(curve.size());
    // The walk of [first, first + count) must visit curve[first..] in order.
    const auto walk_matches = [&](std::int64_t first, std::int64_t count) {
      std::int64_t pos = first;
      bool ok = true;
      locator.for_each_cell(first, count, sfp::sfc::dihedral::identity,
                            [&](sfp::sfc::cell c) {
                              ok = ok && pos < n &&
                                   c == curve[static_cast<std::size_t>(pos)];
                              ++pos;
                            });
      return ok && pos == first + count;
    };
    std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a of the input
    for (std::size_t i = 0; i < size; ++i)
      hash = (hash ^ data[i]) * 1099511628211ULL;
    const auto start = static_cast<std::int64_t>(
        hash % static_cast<std::uint64_t>(n));
    if (!walk_matches(0, n) || !walk_matches(start, n - start) ||
        !walk_matches(0, start))
      __builtin_trap();
  }
  return 0;
}
