// Recovery-latency bench for the distributed partitioner's restart ladder:
// what a fail-stop rank death costs. Three scenarios on one problem —
// fault-free, root killed early, two staggered kills that leave two of
// four ranks — each timed end to end and audited for serial parity (the
// bench exits non-zero if a recovered plan diverges).
// Emits BENCH_partition_recovery.json for the perf guard: the structural
// columns (aborted, parity, kills fired, ranks lost) are deterministic per
// schedule; wall-clock and timing-dependent recovery accounting are
// ignored by the guard's key filter.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/sfc_partition.hpp"
#include "io/json.hpp"
#include "mesh/cubed_sphere.hpp"
#include "runtime/partition_fabric.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace sfp;

struct scenario {
  std::string name;
  std::vector<runtime::fault_plan::kill_spec> kills;
};

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  const int ne = static_cast<int>(args.get_int_or("ne", 4));
  const int nparts = static_cast<int>(args.get_int_or("nparts", 5));
  const int nranks = static_cast<int>(args.get_int_or("nproc", 4));
  const int repeat = static_cast<int>(args.get_int_or("repeat", 3));
  const std::string out_path =
      args.get_or("out", "BENCH_partition_recovery.json");

  const mesh::cubed_sphere mesh(ne);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const partition::partition serial = core::sfc_partition(curve, nparts);

  const std::vector<scenario> scenarios = {
      {"fault-free", {}},
      {"kill-root-early", {{0, 1}}},
      {"two-kills-exact-quorum", {{0, 3}, {2, 2}}},
  };

  std::printf(
      "== Partition recovery: K=%d (Ne=%d), %d parts, %d ranks ==\n\n",
      mesh.num_elements(), ne, nparts, nranks);

  io::json_value doc = io::json_object();
  doc.object["ne"] = io::json_number(ne);
  doc.object["nparts"] = io::json_number(nparts);
  doc.object["nranks"] = io::json_number(nranks);
  io::json_value rows = io::json_array();

  table t({"scenario", "ms (best)", "recoveries", "lost", "kills fired",
           "parity"});
  double base_ms = 0;
  for (const scenario& sc : scenarios) {
    runtime::parallel_partition_report report;
    double best_ms = 1e300;
    for (int r = 0; r < repeat; ++r) {
      runtime::resilience_options opts;
      opts.faults.kills = sc.kills;
      stopwatch sw;
      report =
          runtime::run_parallel_partition(mesh, spec, nparts, {}, nranks, opts);
      best_ms = std::min(best_ms, sw.milliseconds());
    }
    if (sc.kills.empty()) base_ms = best_ms;
    const bool parity =
        !report.aborted && report.plan.part_of == serial.part_of;
    if (!parity) {
      std::fprintf(stderr, "scenario '%s' lost serial parity%s\n",
                   sc.name.c_str(), report.aborted ? " (aborted)" : "");
      return 1;
    }
    if (!sc.kills.empty() &&
        (report.counters.injected_kills !=
             static_cast<std::int64_t>(sc.kills.size()) ||
         report.recoveries < 1)) {
      std::fprintf(stderr, "scenario '%s' did not exercise recovery\n",
                   sc.name.c_str());
      return 1;
    }
    t.new_row()
        .add(sc.name)
        .add(best_ms, 3)
        .add(report.recoveries)
        .add(static_cast<int>(report.lost_ranks.size()))
        .add(static_cast<double>(report.counters.injected_kills), 0)
        .add(parity ? 1 : 0);

    io::json_value row = io::json_object();
    row.object["scenario"] = io::json_string(sc.name);
    row.object["time_usec"] = io::json_number(best_ms * 1e3);
    // One per attempt a kill ended: whether two kills land in one attempt
    // or in two depends on thread timing, so the CI guard names it in
    // --ignore alongside time_usec.
    row.object["recoveries"] = io::json_number(report.recoveries);
    row.object["aborted"] = io::json_number(report.aborted ? 1 : 0);
    row.object["parity"] = io::json_number(parity ? 1 : 0);
    row.object["kills_fired"] = io::json_number(
        static_cast<double>(report.counters.injected_kills));
    row.object["ranks_lost"] =
        io::json_number(static_cast<double>(report.lost_ranks.size()));
    rows.array.push_back(std::move(row));
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "Reading: a rank death aborts the attempt at once, so recovery cost\n"
      "= one from-scratch rerun per restart on the surviving ranks, plus\n"
      "the aborted attempt's partial work; fault-free baseline %.3f ms.\n",
      base_ms);

  doc.object["rows"] = std::move(rows);
  io::write_json_file(doc, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
