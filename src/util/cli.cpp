#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/require.hpp"

namespace sfp {

cli_args::cli_args(int argc, const char* const* argv) {
  SFP_REQUIRE(argc >= 1, "argv must contain at least the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";  // boolean switch
    }
  }
}

std::vector<std::string> cli_args::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& flag : flags_) names.push_back(flag.first);
  return names;
}

bool cli_args::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::optional<std::string> cli_args::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string cli_args::get_or(const std::string& name,
                             std::string fallback) const {
  const auto v = get(name);
  return v ? *v : std::move(fallback);
}

std::int64_t cli_args::get_int_or(const std::string& name,
                                  std::int64_t fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return std::strtoll(v->c_str(), nullptr, 10);
}

double cli_args::get_double_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return std::strtod(v->c_str(), nullptr);
}

bool cli_args::get_bool_or(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  // A present switch is true unless explicitly negated.
  return !(*v == "0" || *v == "false" || *v == "no");
}

}  // namespace sfp
