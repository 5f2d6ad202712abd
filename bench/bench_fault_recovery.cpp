// Fault-recovery bench (beyond the paper): when a rank dies mid-run, the
// survivors must agree on a new partition fast and move as little data as
// possible. Compares two strategies on the cube curve:
//   (a) full re-slice: cut the curve into nparts-1 equal segments and remap
//       against the pre-failure partition to maximize overlap;
//   (b) plan_recovery: absorb the failed segment into its curve neighbours,
//       splitting at the weight midpoint.
// Reports migration fraction, post-recovery load balance, and planning time.
//
// A second, transient-fault section runs the actual distributed step loop
// on the K=384 mesh (Ne=8) under seeded message chaos: drop / corrupt /
// duplicate / reorder faults that the reliable transport heals in place
// (zero migration) versus a rank kill that must climb the escalation
// ladder to a plan_recovery re-slice. It reports wall-clock overhead and
// retransmit counts and writes the numbers to BENCH_chaos.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/rebalance.hpp"
#include "core/sfc_partition.hpp"
#include "io/json.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/partition.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"
#include "util/table.hpp"

namespace {

using namespace sfp;

double load_balance_of(const partition::partition& p) {
  std::vector<std::int64_t> count(static_cast<std::size_t>(p.num_parts), 0);
  for (const auto part : p.part_of) ++count[static_cast<std::size_t>(part)];
  const auto max = *std::max_element(count.begin(), count.end());
  const double avg =
      static_cast<double>(p.part_of.size()) / static_cast<double>(p.num_parts);
  return static_cast<double>(max) / avg;
}

double moved_fraction_reslice(const core::cube_curve& curve,
                              const partition::partition& before, int failed) {
  // Strategy (a): equal re-slice over nparts-1 segments, then relabel the
  // new parts to overlap the pre-failure owners as much as possible. An
  // element only stays put if it keeps a surviving owner — anything that
  // lived on the failed rank migrates no matter what label it gets.
  auto sliced = core::sfc_partition(curve, before.num_parts - 1);
  core::remap_to_maximize_overlap(before, sliced);
  std::int64_t moved = 0;
  for (std::size_t i = 0; i < sliced.part_of.size(); ++i)
    if (before.part_of[i] == failed || sliced.part_of[i] != before.part_of[i])
      ++moved;
  return static_cast<double>(moved) /
         static_cast<double>(sliced.part_of.size());
}

// ---- transient-fault mode: healed in place vs re-slice ---------------------

/// One timed resilient run; `report` and the wall-clock come back to the
/// caller so the rows below can compare fault loads.
double timed_resilient_ms(const seam::advection_model& model,
                          const core::cube_curve& curve,
                          const partition::partition& part, double dt,
                          int nsteps, const runtime::resilience_options& ropts,
                          seam::recovery_report* report) {
  const auto t0 = std::chrono::steady_clock::now();
  (void)seam::run_distributed_resilient(model, curve, part, dt, nsteps, ropts,
                                        report);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void transient_fault_section() {
  // K = 6*Ne^2 = 384 elements — the paper's smallest sweep point — split
  // over 24 virtual ranks. Wall-clock on a thread-per-rank world measures
  // protocol overhead (envelopes, acks, retransmits), not network time.
  const int ne = 8, nproc = 24, nsteps = 4;
  const mesh::cubed_sphere mesh(ne);
  const auto curve = core::build_cube_curve(mesh);
  const auto part = core::sfc_partition(curve, nproc);
  seam::advection_model model(mesh, 4);
  model.set_field([](mesh::vec3 p) {
    return std::exp(-6.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
  });
  const double dt = model.cfl_dt(0.3);

  std::printf("== Transient faults at K=%d: heal in place vs re-slice ==\n\n",
              mesh.num_elements());

  const auto base = [&] {
    runtime::resilience_options r;
    r.max_recoveries = 1;
    return r;
  };

  // (1) no faults — the floor: envelope + ack + checkpoint-fence cost.
  runtime::resilience_options clean = base();
  seam::recovery_report clean_rep;
  const double clean_ms =
      timed_resilient_ms(model, curve, part, dt, nsteps, clean, &clean_rep);

  // (2) message chaos — retransmit overhead, the faults heal in place
  // (no recovery, nothing migrates).
  runtime::resilience_options chaos = base();
  chaos.faults.seed = 384;
  auto& mf = chaos.faults.message_faults.emplace_back();
  mf.drop_probability = 0.02;
  mf.corrupt_probability = 0.02;
  mf.duplicate_probability = 0.02;
  mf.reorder_probability = 0.01;
  seam::recovery_report chaos_rep;
  const double chaos_ms =
      timed_resilient_ms(model, curve, part, dt, nsteps, chaos, &chaos_rep);

  // (3) rank kill — transient healing cannot help; the run re-slices.
  runtime::resilience_options kill = base();
  kill.faults.kills.push_back({nproc / 2, 40});
  seam::recovery_report kill_rep;
  const double kill_ms =
      timed_resilient_ms(model, curve, part, dt, nsteps, kill, &kill_rep);

  table t({"scenario", "ms", "recoveries", "retransmits", "moved %"});
  const auto row = [&](const char* name, double ms,
                       const seam::recovery_report& rep) {
    t.new_row()
        .add(name)
        .add(ms, 1)
        .add(rep.recoveries)
        .add(rep.reliable.retransmits)
        .add(100.0 * rep.migration.moved_fraction, 2);
  };
  row("fault-free", clean_ms, clean_rep);
  row("message chaos", chaos_ms, chaos_rep);
  row("rank kill -> re-slice", kill_ms, kill_rep);
  std::printf("%s\n", t.str().c_str());
  std::printf("Message chaos heals in place: no recovery, and nothing\n"
              "migrates; the cost is retransmits on the already-degraded\n"
              "links. A kill always pays a re-slice plus a rollback to the\n"
              "last checkpoint.\n\n");

  io::json_value doc = io::json_object();
  doc.object["ne"] = io::json_number(ne);
  doc.object["elements"] = io::json_number(mesh.num_elements());
  doc.object["nproc"] = io::json_number(nproc);
  doc.object["nsteps"] = io::json_number(nsteps);
  const auto scenario = [](double ms, const seam::recovery_report& rep) {
    io::json_value s = io::json_object();
    s.object["ms"] = io::json_number(ms);
    s.object["recoveries"] = io::json_number(rep.recoveries);
    s.object["retransmits"] =
        io::json_number(static_cast<double>(rep.reliable.retransmits));
    s.object["corruption_detected"] = io::json_number(
        static_cast<double>(rep.reliable.corruption_detected));
    s.object["dedup_dropped"] =
        io::json_number(static_cast<double>(rep.reliable.dedup_dropped));
    s.object["moved_fraction"] =
        io::json_number(rep.migration.moved_fraction);
    return s;
  };
  doc.object["reliable_fault_free"] = scenario(clean_ms, clean_rep);
  doc.object["reliable_message_chaos"] = scenario(chaos_ms, chaos_rep);
  doc.object["rank_kill_reslice"] = scenario(kill_ms, kill_rep);
  io::write_json_file(doc, "BENCH_chaos.json");
  std::printf("wrote BENCH_chaos.json\n");
}

}  // namespace

int main() {
  std::printf("== Rank-failure recovery: full re-slice vs neighbour absorb ==\n\n");
  std::printf("One rank dies; survivors repartition the curve. 'moved' counts\n"
              "elements whose owner changes (data that must migrate).\n\n");

  table t({"Ne", "K", "nparts", "reslice moved %", "absorb moved %",
           "1/nparts %", "absorb LB", "plan us"});

  const int cases[][2] = {{8, 24}, {8, 96}, {16, 96}, {16, 384}, {32, 384}};
  for (const auto& c : cases) {
    const int ne = c[0], nproc = c[1];
    const mesh::cubed_sphere mesh(ne);
    const auto curve = core::build_cube_curve(mesh);
    const auto before = core::sfc_partition(curve, nproc);

    // Average over a spread of failed ranks; time the planning itself.
    double reslice_moved = 0, absorb_moved = 0, worst_lb = 0;
    double plan_us = 0;
    const int failures[] = {0, nproc / 3, nproc / 2, nproc - 1};
    for (const int failed : failures) {
      reslice_moved += moved_fraction_reslice(curve, before, failed);
      const auto t0 = std::chrono::steady_clock::now();
      const auto plan = core::plan_recovery(curve, before, failed);
      const auto t1 = std::chrono::steady_clock::now();
      plan_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
      absorb_moved += plan.migration.moved_fraction;
      worst_lb = std::max(worst_lb, load_balance_of(plan.part));
    }
    const double n = static_cast<double>(std::size(failures));
    t.new_row()
        .add(ne)
        .add(mesh.num_elements())
        .add(nproc)
        .add(100.0 * reslice_moved / n, 2)
        .add(100.0 * absorb_moved / n, 2)
        .add(100.0 / nproc, 2)
        .add(worst_lb, 3)
        .add(plan_us / n, 1);
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("Absorbing the failed segment moves exactly the failed rank's\n"
              "elements (1/nparts of the mesh) at the cost of ~1.5x load on\n"
              "the two absorbers (2x when the failed rank sits at a curve end\n"
              "and has one neighbour); a full re-slice rebalances perfectly\n"
              "but migrates an nparts-independent ~25%% of the mesh.\n\n");
  transient_fault_section();
  return 0;
}
