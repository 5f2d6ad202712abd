#pragma once
// JSON persistence for fault_plan: a hand-written or saved plan replayed
// with `sfcpart faults --plan=<file>` or by any test that loads it back.
// Chaos reproducers are not fault plans: they are chaos_schedule JSON
// (seam/chaos.hpp), replayed with `sfcpart chaos --replay=<file>`.
//
// Format (all keys optional except as noted):
//   {
//     "seed": "12345",                  // decimal string: uint64-exact
//     "kills": [ {"rank": 2, "at_op": 17}, ... ],
//     "message_faults": [ {
//        "src": -1, "dst": -1,                  // -1 = wildcard
//        "drop": 0.1, "delay": 0.0, "duplicate": 0.0,
//        "corrupt": 0.2, "truncate": 0.0, "reorder": 0.0,
//        "delay_us": 200, "fire_from": 0, "fire_count": -1, "min_payload": 0
//     }, ... ]
//   }
// The seed also parses from a plain number for hand-written plans. Every
// integer field must be integral and in range (io::json_integer). A "tag"
// key, left by plans saved while datagrams were tagged, is accepted only as
// the -1 wildcard every writer emitted. Any other key is an error, so a
// misspelt key cannot pass vacuously.

#include <string>

#include "io/json.hpp"
#include "runtime/fault.hpp"

namespace sfp::runtime {

/// Build the JSON document for a plan. Round-trips exactly through
/// fault_plan_from_json (including 64-bit seeds, which travel as strings).
io::json_value fault_plan_to_json(const fault_plan& plan);

/// Parse a plan document; throws sfp::contract_error on malformed input
/// (unknown structure or keys, out-of-range probabilities, non-integral or
/// out-of-range integers, a tag other than -1).
fault_plan fault_plan_from_json(const io::json_value& doc);

/// File convenience wrappers over the above.
void save_fault_plan(const fault_plan& plan, const std::string& path);
fault_plan load_fault_plan(const std::string& path);

}  // namespace sfp::runtime
