// Strong-scaling microbenchmark for the distributed SFC partitioner:
// elements/sec of the full parallel pipeline (range enumeration + one
// prefix walk for the cuts + labeling) as the virtual-rank count grows,
// against the serial slicer as the one-rank reference. Emits
// BENCH_partition_scaling.json for the trend tooling.
//
// Virtual ranks are threads on one node, so this measures the algorithm's
// communication structure (messages and words on the wire per run) and
// per-rank compute shrinkage rather than real network latency; the wire
// volume is what transfers to a cluster.

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "io/json.hpp"
#include "runtime/partition_fabric.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sfp;
  const cli_args args(argc, argv);
  const int ne = static_cast<int>(args.get_int_or("ne", 16));
  const int nparts = static_cast<int>(args.get_int_or("nparts", 24));
  const int repeat = static_cast<int>(args.get_int_or("repeat", 3));
  const std::string out_path =
      args.get_or("out", "BENCH_partition_scaling.json");

  const mesh::cubed_sphere mesh(ne);
  const int k = mesh.num_elements();
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const partition::partition serial = core::sfc_partition(curve, nparts);

  // Serial reference: the sliced plan over the already-built curve.
  double serial_ms = 1e300;
  for (int r = 0; r < repeat; ++r) {
    stopwatch sw;
    const auto p = core::sfc_partition(curve, nparts);
    serial_ms = std::min(serial_ms, sw.milliseconds());
    if (p.part_of != serial.part_of) {
      std::fprintf(stderr, "serial slicer is not deterministic?\n");
      return 1;
    }
  }

  std::printf("== Distributed partition scaling: K=%d (Ne=%d), %d parts ==\n\n",
              k, ne, nparts);
  std::printf("serial sfc_partition (curve prebuilt): %.3f ms\n\n", serial_ms);

  io::json_value doc = io::json_object();
  doc.object["ne"] = io::json_number(ne);
  doc.object["elements"] = io::json_number(k);
  doc.object["nparts"] = io::json_number(nparts);
  doc.object["serial_ms"] = io::json_number(serial_ms);
  io::json_value points = io::json_array();

  table t({"ranks", "ms (best)", "elements/sec", "messages", "doubles",
           "retransmits"});
  for (const int nranks : {1, 2, 4, 8}) {
    runtime::parallel_partition_report report;
    double best_ms = 1e300;
    for (int r = 0; r < repeat; ++r) {
      stopwatch sw;
      report = runtime::run_parallel_partition(mesh, spec, nparts, {}, nranks);
      best_ms = std::min(best_ms, sw.milliseconds());
    }
    if (report.plan.part_of != serial.part_of) {
      std::fprintf(stderr, "parallel plan diverged from serial at %d ranks\n",
                   nranks);
      return 1;
    }
    const double elems_per_sec = static_cast<double>(k) / (best_ms / 1e3);
    // The last run's wire totals, acks and retransmits included.
    const auto messages = static_cast<double>(report.counters.messages_sent);
    const auto doubles = static_cast<double>(report.counters.doubles_sent);
    t.new_row()
        .add(nranks)
        .add(best_ms, 3)
        .add(elems_per_sec, 0)
        .add(messages, 0)
        .add(doubles, 0)
        .add(static_cast<double>(report.reliable.retransmits), 0);

    io::json_value pt = io::json_object();
    pt.object["ranks"] = io::json_number(nranks);
    pt.object["ms"] = io::json_number(best_ms);
    pt.object["elements_per_sec"] = io::json_number(elems_per_sec);
    pt.object["messages_sent"] = io::json_number(messages);
    pt.object["doubles_sent"] = io::json_number(doubles);
    pt.object["retransmits"] =
        io::json_number(static_cast<double>(report.reliable.retransmits));
    points.array.push_back(std::move(pt));
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("Reading: rank counts here are threads, so elements/sec mostly\n"
              "prices the fabric; the per-rank enumeration, walk and\n"
              "labeling work shrinks as 1/P. A run is two rank-0-rooted\n"
              "allgathers and a barrier, so messages grow as O(P) and\n"
              "doubles as O(P * (nparts + P)), independent of K (one rank:\n"
              "none).\n");

  doc.object["points"] = std::move(points);
  io::write_json_file(doc, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
