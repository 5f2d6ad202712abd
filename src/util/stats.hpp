#pragma once
// Small descriptive-statistics helpers over spans of numbers, including the
// paper's load-balance metric LB(S) = (max(S) - avg(S)) / max(S)  (eq. 1).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>

#include "util/contract.hpp"

namespace sfp {

template <typename T>
double sum_of(std::span<const T> values) {
  return std::accumulate(values.begin(), values.end(), 0.0,
                         [](double acc, T v) { return acc + static_cast<double>(v); });
}

template <typename T>
double mean_of(std::span<const T> values) {
  SFP_REQUIRE(!values.empty(), "mean of empty span");
  return sum_of(values) / static_cast<double>(values.size());
}

template <typename T>
double max_of(std::span<const T> values) {
  SFP_REQUIRE(!values.empty(), "max of empty span");
  return static_cast<double>(*std::max_element(values.begin(), values.end()));
}

template <typename T>
double min_of(std::span<const T> values) {
  SFP_REQUIRE(!values.empty(), "min of empty span");
  return static_cast<double>(*std::min_element(values.begin(), values.end()));
}

template <typename T>
double stdev_of(std::span<const T> values) {
  SFP_REQUIRE(!values.empty(), "stdev of empty span");
  const double m = mean_of(values);
  double acc = 0.0;
  for (T v : values) {
    const double d = static_cast<double>(v) - m;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(values.size()));
}

/// Paper eq. (1): LB(S) = (max{S} - avg{S}) / max{S}.
///
/// 0 means perfectly balanced; approaching 1 means one bucket dominates.
/// If max(S) == 0 (nothing anywhere) the set is balanced by convention.
template <typename T>
double load_balance(std::span<const T> values) {
  SFP_REQUIRE(!values.empty(), "load balance of empty span");
  const double mx = max_of(values);
  if (mx == 0.0) return 0.0;
  return (mx - mean_of(values)) / mx;
}

}  // namespace sfp
