#pragma once
// Tiny command-line flag parser shared by benches and examples.
// Supports --name=value and --name value forms plus boolean switches.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sfp {

/// Parses flags of the form --key=value / --key value / --switch.
/// Positional arguments are collected in order.
class cli_args {
 public:
  cli_args(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, std::string fallback) const;
  std::int64_t get_int_or(const std::string& name, std::int64_t fallback) const;
  double get_double_or(const std::string& name, double fallback) const;
  bool get_bool_or(const std::string& name, bool fallback) const;

  /// Names of every --flag given, sorted, so a command can reject the ones
  /// it does not read.
  std::vector<std::string> flag_names() const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace sfp
