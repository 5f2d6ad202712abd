#include "runtime/fault_json.hpp"

#include <fstream>
#include <sstream>
#include <string>

#include "util/contract.hpp"

namespace sfp::runtime {

namespace {

double checked_probability(const io::json_value& v, const char* key) {
  SFP_REQUIRE(v.is_number(), std::string("fault plan: ") + key +
                                 " must be a number");
  SFP_REQUIRE(v.number >= 0.0 && v.number <= 1.0,
              std::string("fault plan: ") + key + " must be in [0, 1]");
  return v.number;
}

}  // namespace

io::json_value fault_plan_to_json(const fault_plan& plan) {
  io::json_value doc = io::json_object();
  // uint64 seeds would round through double above 2^53 — travel as text.
  doc.object["seed"] = io::json_string(std::to_string(plan.seed));
  io::json_value kills = io::json_array();
  for (const auto& k : plan.kills) {
    io::json_value entry = io::json_object();
    entry.object["rank"] = io::json_number(k.rank);
    entry.object["at_op"] = io::json_number(static_cast<double>(k.at_op));
    kills.array.push_back(std::move(entry));
  }
  doc.object["kills"] = std::move(kills);
  io::json_value faults = io::json_array();
  for (const auto& mf : plan.message_faults) {
    io::json_value entry = io::json_object();
    entry.object["src"] = io::json_number(mf.src);
    entry.object["dst"] = io::json_number(mf.dst);
    entry.object["drop"] = io::json_number(mf.drop_probability);
    entry.object["delay"] = io::json_number(mf.delay_probability);
    entry.object["duplicate"] = io::json_number(mf.duplicate_probability);
    entry.object["corrupt"] = io::json_number(mf.corrupt_probability);
    entry.object["truncate"] = io::json_number(mf.truncate_probability);
    entry.object["reorder"] = io::json_number(mf.reorder_probability);
    entry.object["delay_us"] =
        io::json_number(static_cast<double>(mf.delay.count()));
    entry.object["fire_from"] =
        io::json_number(static_cast<double>(mf.fire_from));
    entry.object["fire_count"] =
        io::json_number(static_cast<double>(mf.fire_count));
    entry.object["min_payload"] =
        io::json_number(static_cast<double>(mf.min_payload));
    faults.array.push_back(std::move(entry));
  }
  doc.object["message_faults"] = std::move(faults);
  return doc;
}

fault_plan fault_plan_from_json(const io::json_value& doc) {
  SFP_REQUIRE(doc.is_object(), "fault plan: top level must be an object");
  io::json_require_known_keys(doc, {"seed", "kills", "message_faults"},
                              "fault plan");
  fault_plan plan;
  if (doc.has("seed")) {
    const io::json_value& seed = doc.at("seed");
    if (seed.is_string()) {
      SFP_REQUIRE(!seed.string.empty() &&
                      seed.string.find_first_not_of("0123456789") ==
                          std::string::npos,
                  "fault plan: seed string must be a decimal uint64");
      plan.seed = std::stoull(seed.string);
    } else {
      plan.seed = io::json_integer<std::uint64_t>(seed, "fault plan: seed");
    }
  }
  if (doc.has("kills")) {
    const io::json_value& kills = doc.at("kills");
    SFP_REQUIRE(kills.is_array(), "fault plan: kills must be an array");
    for (const io::json_value& entry : kills.array) {
      SFP_REQUIRE(entry.is_object(), "fault plan: kill must be an object");
      io::json_require_known_keys(entry, {"rank", "at_op"}, "fault plan: kill");
      fault_plan::kill_spec k;
      k.rank = io::json_integer<int>(entry.at("rank"), "fault plan: kill rank",
                                     0);
      k.at_op = io::json_integer<std::int64_t>(entry.at("at_op"),
                                               "fault plan: kill at_op", 1);
      plan.kills.push_back(k);
    }
  }
  if (doc.has("message_faults")) {
    const io::json_value& faults = doc.at("message_faults");
    SFP_REQUIRE(faults.is_array(),
                "fault plan: message_faults must be an array");
    for (const io::json_value& entry : faults.array) {
      SFP_REQUIRE(entry.is_object(),
                  "fault plan: message fault must be an object");
      io::json_require_known_keys(
          entry,
          {"src", "dst", "tag", "drop", "delay", "duplicate", "corrupt",
           "truncate", "reorder", "delay_us", "fire_from", "fire_count",
           "min_payload"},
          "fault plan: message fault");
      fault_plan::message_fault mf;
      // -1 is the wildcard rank.
      if (entry.has("src"))
        mf.src = io::json_integer<int>(entry.at("src"), "fault plan: src", -1);
      if (entry.has("dst"))
        mf.dst = io::json_integer<int>(entry.at("dst"), "fault plan: dst", -1);
      // Datagrams are untagged; plans written while they were tagged carry
      // the wildcard, the only tag any writer emitted.
      if (entry.has("tag"))
        SFP_REQUIRE(entry.at("tag").is_number() &&
                        entry.at("tag").number == -1,
                    "fault plan: tag must be -1 (datagrams are untagged)");
      if (entry.has("drop"))
        mf.drop_probability = checked_probability(entry.at("drop"), "drop");
      if (entry.has("delay"))
        mf.delay_probability = checked_probability(entry.at("delay"), "delay");
      if (entry.has("duplicate"))
        mf.duplicate_probability =
            checked_probability(entry.at("duplicate"), "duplicate");
      if (entry.has("corrupt"))
        mf.corrupt_probability =
            checked_probability(entry.at("corrupt"), "corrupt");
      if (entry.has("truncate"))
        mf.truncate_probability =
            checked_probability(entry.at("truncate"), "truncate");
      if (entry.has("reorder"))
        mf.reorder_probability =
            checked_probability(entry.at("reorder"), "reorder");
      if (entry.has("delay_us"))
        mf.delay = std::chrono::microseconds(io::json_integer<std::int64_t>(
            entry.at("delay_us"), "fault plan: delay_us", 0));
      if (entry.has("fire_from"))
        mf.fire_from = io::json_integer<std::int64_t>(
            entry.at("fire_from"), "fault plan: fire_from", 0);
      // fire_count -1 = unlimited.
      if (entry.has("fire_count"))
        mf.fire_count = io::json_integer<std::int64_t>(
            entry.at("fire_count"), "fault plan: fire_count", -1);
      if (entry.has("min_payload"))
        mf.min_payload = io::json_integer<std::size_t>(
            entry.at("min_payload"), "fault plan: min_payload");
      plan.message_faults.push_back(mf);
    }
  }
  return plan;
}

void save_fault_plan(const fault_plan& plan, const std::string& path) {
  io::write_json_file(fault_plan_to_json(plan), path);
}

fault_plan load_fault_plan(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SFP_REQUIRE(is.good(), "cannot open fault plan file: " + path);
  std::ostringstream text;
  text << is.rdbuf();
  return fault_plan_from_json(io::parse_json(text.str()));
}

}  // namespace sfp::runtime
