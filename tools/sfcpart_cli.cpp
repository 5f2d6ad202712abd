// sfcpart — command-line driver for the library.
//
//   sfcpart info      --ne=16
//   sfcpart partition --ne=16 --nproc=768 [--method=sfc|rb|kway|tv|rcb]
//                     [--order=peano|hilbert|interleaved] [--schedule=SPEC]
//                     [--out=part.csv]
//   sfcpart curve     --ne=8 [--out=curve.csv] [--art]
//   sfcpart figure    --ne=8 [--metric=speedup|gflops] [--out=figure]
//   sfcpart trace     --ne=8 --nproc=24 [--steps=4] [--out=BASE]
//
// `figure` sweeps the equal-load processor counts, evaluates SFC vs the
// best METIS-family partition on the modeled machine, and writes
// gnuplot-ready artifacts (<out>.dat/<out>.gp). `trace` runs an observed
// advection step loop and writes <BASE>.trace.json (load in Perfetto /
// chrome://tracing) and <BASE>.metrics.json — see docs/observability.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/cube_curve.hpp"
#include "io/trace_io.hpp"
#include "obs/obs.hpp"
#include "core/rebalance.hpp"
#include "core/sfc_partition.hpp"
#include "io/csv.hpp"
#include "io/gnuplot.hpp"
#include "io/partition_io.hpp"
#include "io/vtk.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/geometric.hpp"
#include "mgp/partitioner.hpp"
#include "partition/metrics.hpp"
#include "perf/machine.hpp"
#include "perf/simulate.hpp"
#include "runtime/transport.hpp"
#include "seam/advection.hpp"
#include "seam/chaos.hpp"
#include "seam/distributed.hpp"
#include "sfc/curve.hpp"
#include "sfc/parse.hpp"
#include "sfc/render.hpp"
#include "util/cli.hpp"
#include "util/contract.hpp"
#include "util/table.hpp"

namespace {

using namespace sfp;

int usage() {
  std::fprintf(stderr,
               "usage: sfcpart "
               "<info|partition|curve|figure|validate|chaos|trace> "
               "[--flags]\n"
               "  info      --ne=N\n"
               "  partition --ne=N --nproc=P [--method=sfc|rb|kway|tv|rcb] "
               "[--out=FILE] [--vtk=FILE]\n"
               "            [--schedule=SPEC]  (explicit face schedule, "
               "e.g. 'p,p,h' or 'hilbert*4'; side must equal Ne)\n"
               "  curve     --ne=N [--out=FILE] [--art]\n"
               "  figure    --ne=N [--metric=speedup|gflops] [--out=BASE]\n"
               "  validate  --ne=N --in=FILE   (metrics of a saved "
               "partition)\n"
               "  chaos     [--trials=T] [--seed=X] [--faults=F] [--kills=K] "
               "[--ne=N] [--nproc=P]\n"
               "            [--steps=S] [--out=BASE] [--no-shrink] "
               "[--replay=FILE] [--kill-rank=R@N]\n"
               "            (soak SEAM advection under T randomized "
               "schedules of F message faults\n"
               "            and K rank kills; failures are ddmin-shrunk "
               "and written as\n"
               "            BASE.failK.json reproducers; --replay reruns "
               "one, --kill-rank runs one\n"
               "            directed trial killing rank R at its Nth "
               "frame: data frames\n"
               "            and fence tokens count, acks and resends "
               "never do)\n"
               "            [--partition] [--nparts=P]\n"
               "            (the same on the distributed SFC partitioner, "
               "which must match the\n"
               "            serial plan exactly; on either harness a "
               "fired kill loses its rank,\n"
               "            and only schedules that can exhaust the ladder "
               "may abort)\n"
               "  trace     --ne=N --nproc=P [--steps=S] [--out=BASE]\n"
               "            (observed advection run; writes "
               "BASE.trace.json + BASE.metrics.json)\n");
  return 2;
}

// False (after naming it on stderr) when a flag outside `known` was given:
// a misspelt or retired flag must not run silently with its default. Every
// command checks its own list first and exits 2 on a refusal.
bool only_known_flags(const cli_args& args,
                      std::initializer_list<std::string_view> known) {
  for (const std::string& name : args.flag_names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return false;
    }
  }
  return true;
}

sfc::nesting_order order_from(const std::string& name) {
  if (name == "hilbert") return sfc::nesting_order::hilbert_first;
  if (name == "interleaved") return sfc::nesting_order::interleaved;
  return sfc::nesting_order::peano_first;
}

int cmd_info(const cli_args& args) {
  if (!only_known_flags(args, {"ne"})) return 2;
  const int ne = static_cast<int>(args.get_int_or("ne", 8));
  const mesh::cubed_sphere mesh(ne);
  std::printf("Ne=%d: K=%d elements, SFC-compatible: %s (extended: %s)\n", ne,
              mesh.num_elements(), core::sfc_supports(ne) ? "yes" : "no",
              core::sfc_supports_extended(ne) ? "yes" : "no");
  std::printf("equal-load processor counts:");
  for (const int p : core::equal_load_nprocs(ne)) std::printf(" %d", p);
  std::printf("\n");
  return 0;
}

int cmd_partition(const cli_args& args) {
  if (!only_known_flags(args, {"ne", "nproc", "method", "schedule", "order",
                               "out", "vtk"}))
    return 2;
  const int ne = static_cast<int>(args.get_int_or("ne", 8));
  const int nproc = static_cast<int>(args.get_int_or("nproc", 24));
  const std::string method = args.get_or("method", "sfc");
  const mesh::cubed_sphere mesh(ne);
  const auto dual = mesh.dual_graph();
  if (nproc < 1 || nproc > mesh.num_elements()) {
    std::fprintf(stderr, "nproc must be in [1, %d]\n", mesh.num_elements());
    return 2;
  }

  partition::partition part;
  if (method == "sfc") {
    core::cube_curve curve;
    if (args.has("schedule")) {
      // Explicit face schedule, e.g. --schedule=p,p,h or hilbert*4.
      sfc::schedule sched;
      std::string err;
      if (!sfc::try_parse_schedule(args.get_or("schedule", ""), sched,
                                   &err)) {
        std::fprintf(stderr, "bad --schedule: %s\n", err.c_str());
        return 2;
      }
      if (sfc::side_of(sched) != ne) {
        std::fprintf(stderr,
                     "--schedule side %d does not match --ne=%d\n",
                     sfc::side_of(sched), ne);
        return 2;
      }
      curve = core::build_cube_curve(mesh, sched);
    } else if (!core::sfc_supports_extended(ne)) {
      std::fprintf(stderr,
                   "Ne=%d is not 2^n 3^m 5^p; SFC does not apply — use "
                   "--method=rb|kway|tv|rcb\n",
                   ne);
      return 2;
    } else {
      // The paper's factor set honors --order; factor-5 meshes use the
      // extended schedule (largest factor first).
      curve = core::sfc_supports(ne)
                  ? core::build_cube_curve(
                        mesh, order_from(args.get_or("order", "peano")))
                  : core::build_cube_curve_extended(mesh);
    }
    part = core::sfc_partition(curve, nproc);
  } else if (method == "rcb") {
    std::vector<mgp::point3> centers(
        static_cast<std::size_t>(mesh.num_elements()));
    for (int e = 0; e < mesh.num_elements(); ++e) {
      const mesh::vec3 c = mesh.element_center_sphere(e);
      centers[static_cast<std::size_t>(e)] = {c.x, c.y, c.z};
    }
    part = mgp::recursive_coordinate_bisection(centers, {}, nproc);
  } else {
    mgp::options opt;
    if (method == "rb") opt.algo = mgp::method::recursive_bisection;
    else if (method == "kway") opt.algo = mgp::method::kway;
    else if (method == "tv") opt.algo = mgp::method::kway_volume;
    else return usage();
    part = mgp::partition_graph(dual, nproc, opt);
  }

  const auto m = partition::compute_metrics(dual, part);
  const auto time = perf::simulate_step(dual, part, perf::machine_model{},
                                        perf::seam_workload{});
  table t({"metric", "value"});
  t.new_row().add("method").add(method);
  t.new_row().add("K / Nproc").add(std::to_string(mesh.num_elements()) + " / " +
                                   std::to_string(nproc));
  t.new_row().add("LB(nelemd)").add(m.lb_elems, 4);
  t.new_row().add("LB(spcv)").add(m.lb_comm, 4);
  t.new_row().add("edgecut").add(m.edgecut_edges);
  t.new_row().add("max peers").add(m.max_peers);
  t.new_row().add("modeled time (usec/step)").add(time.total_s * 1e6, 1);
  std::printf("%s", t.str().c_str());

  if (args.has("out")) {
    const std::string path = args.get_or("out", "partition.csv");
    io::save_partition_file(path, part);
    std::printf("partition written to %s\n", path.c_str());
  }
  if (args.has("vtk")) {
    const std::string path = args.get_or("vtk", "partition.vtk");
    io::vtk_cell_field owner{"owner", {}};
    owner.values.assign(part.part_of.begin(), part.part_of.end());
    io::write_vtk_file(path, mesh, {owner});
    std::printf("vtk written to %s (open in ParaView)\n", path.c_str());
  }
  return 0;
}

int cmd_curve(const cli_args& args) {
  if (!only_known_flags(args, {"ne", "art", "out"})) return 2;
  const int ne = static_cast<int>(args.get_int_or("ne", 8));
  const mesh::cubed_sphere mesh(ne);
  if (!core::sfc_supports_extended(ne)) {
    std::fprintf(stderr, "Ne=%d is not 2^n 3^m 5^p\n", ne);
    return 2;
  }
  const auto curve = core::build_cube_curve_extended(mesh);
  std::printf("curve: %s, %s\n",
              sfc::schedule_name(curve.face_schedule).c_str(),
              curve.closed ? "closed" : "open");
  if (args.has("art") && ne <= 32) {
    const auto base = sfc::generate(curve.face_schedule);
    std::printf("%s", sfc::render_curve(base, ne).c_str());
  }
  if (args.has("out")) {
    io::csv_writer w({"position", "element", "face", "i", "j"});
    for (std::size_t pos = 0; pos < curve.order.size(); ++pos) {
      const auto r = mesh.element_of(curve.order[pos]);
      w.new_row()
          .add(static_cast<std::int64_t>(pos))
          .add(curve.order[pos])
          .add(r.face)
          .add(r.i)
          .add(r.j);
    }
    const std::string path = args.get_or("out", "curve.csv");
    w.write_file(path);
    std::printf("curve written to %s\n", path.c_str());
  }
  return 0;
}

int cmd_figure(const cli_args& args) {
  if (!only_known_flags(args, {"ne", "metric", "out"})) return 2;
  const int ne = static_cast<int>(args.get_int_or("ne", 8));
  const std::string metric = args.get_or("metric", "speedup");
  const std::string out = args.get_or("out", "figure_ne" + std::to_string(ne));
  const mesh::cubed_sphere mesh(ne);
  if (!core::sfc_supports_extended(ne)) {
    std::fprintf(stderr, "Ne=%d is not SFC-compatible\n", ne);
    return 2;
  }
  const auto dual = mesh.dual_graph();
  const auto curve = core::build_cube_curve_extended(mesh);
  const perf::machine_model machine;
  const perf::seam_workload workload;
  const auto serial =
      perf::serial_step(mesh.num_elements(), machine, workload);

  io::plot_series sfc_series{"SFC", {}, {}};
  io::plot_series mgp_series{"best METIS-family", {}, {}};
  for (const int nproc : core::equal_load_nprocs(ne)) {
    if (nproc < 2) continue;
    const auto sfc_part = core::sfc_partition(curve, nproc);
    const auto t_sfc = perf::simulate_step(dual, sfc_part, machine, workload);
    double best = 0;
    for (const auto& [algo, part] : mgp::run_all_methods(dual, nproc)) {
      (void)algo;
      const auto tm = perf::simulate_step(dual, part, machine, workload);
      if (best == 0 || tm.total_s < best) best = tm.total_s;
    }
    const auto value = [&](double total_s) {
      if (metric == "gflops")
        return static_cast<double>(mesh.num_elements()) *
               workload.flops_per_element() / total_s / 1e9;
      return serial.total_s / total_s;
    };
    sfc_series.x.push_back(nproc);
    sfc_series.y.push_back(value(t_sfc.total_s));
    mgp_series.x.push_back(nproc);
    mgp_series.y.push_back(value(best));
  }

  io::plot_spec spec;
  spec.title = (metric == "gflops" ? "Sustained Gflop/s" : "Speedup") +
               std::string(", K=") + std::to_string(mesh.num_elements());
  spec.ylabel = metric;
  spec.series = {sfc_series, mgp_series};
  io::write_gnuplot(out, spec);
  std::printf("wrote %s.dat and %s.gp (run: gnuplot %s.gp)\n", out.c_str(),
              out.c_str(), out.c_str());
  return 0;
}

int cmd_validate(const cli_args& args) {
  if (!only_known_flags(args, {"ne", "in"})) return 2;
  const int ne = static_cast<int>(args.get_int_or("ne", 8));
  if (!args.has("in")) return usage();
  const std::string path = args.get_or("in", "");
  const mesh::cubed_sphere mesh(ne);
  const auto part = io::load_partition_file(path);
  if (part.part_of.size() != static_cast<std::size_t>(mesh.num_elements())) {
    std::fprintf(stderr,
                 "partition covers %zu elements but Ne=%d has %d\n",
                 part.part_of.size(), ne, mesh.num_elements());
    return 1;
  }
  const auto dual = mesh.dual_graph();
  const auto m = partition::compute_metrics(dual, part);
  const auto time = perf::simulate_step(dual, part, perf::machine_model{},
                                        perf::seam_workload{});
  table t({"metric", "value"});
  t.new_row().add("file").add(path);
  t.new_row().add("num parts").add(m.num_parts);
  t.new_row().add("all parts non-empty").add(
      partition::all_parts_nonempty(part) ? "yes" : "NO");
  t.new_row().add("LB(nelemd)").add(m.lb_elems, 4);
  t.new_row().add("LB(spcv)").add(m.lb_comm, 4);
  t.new_row().add("edgecut").add(m.edgecut_edges);
  t.new_row().add("max peers").add(m.max_peers);
  t.new_row().add("modeled time (usec/step)").add(time.total_s * 1e6, 1);
  std::printf("%s", t.str().c_str());
  return 0;
}

// "R@N" -> kill rank R at its Nth frame (fault.hpp). Returns false
// on anything that is not two decimal integers around a single '@'.
bool parse_kill_at(const std::string& text, int* rank, std::int64_t* at_op) {
  const std::size_t at = text.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= text.size())
    return false;
  const std::string r = text.substr(0, at);
  const std::string op = text.substr(at + 1);
  if (r.find_first_not_of("0123456789") != std::string::npos ||
      op.find_first_not_of("0123456789") != std::string::npos)
    return false;
  *rank = std::atoi(r.c_str());
  *at_op = std::atoll(op.c_str());
  return *at_op >= 1;
}

// The accounting every resilient run reports, summed over ranks and
// attempts: restarts, lost ranks, and the fabric and reliable-channel
// counters.
void print_accounting(const runtime::resilience_report& r) {
  std::string lost;
  for (const int rank : r.lost_ranks)
    lost += (lost.empty() ? "" : " ") + std::to_string(rank);
  const auto& c = r.counters;
  const auto& rel = r.reliable;
  table t({"accounting (all ranks, all attempts)", "value"});
  t.new_row().add("recoveries").add(r.recoveries);
  t.new_row().add("messages sent").add(c.messages_sent);
  t.new_row().add("doubles sent").add(c.doubles_sent);
  t.new_row().add("aborts observed").add(c.aborts_observed);
  t.new_row().add("injected kills").add(c.injected_kills);
  t.new_row().add("injected drops").add(c.injected_drops);
  t.new_row().add("injected delays").add(c.injected_delays);
  t.new_row().add("injected duplicates").add(c.injected_duplicates);
  t.new_row().add("injected corruptions").add(c.injected_corruptions);
  t.new_row().add("injected truncations").add(c.injected_truncations);
  t.new_row().add("injected reorders").add(c.injected_reorders);
  t.new_row().add("data sent").add(rel.data_sent);
  t.new_row().add("data received").add(rel.data_received);
  t.new_row().add("retransmits").add(rel.retransmits);
  t.new_row().add("corruption detected").add(rel.corruption_detected);
  t.new_row().add("duplicates dropped").add(rel.dedup_dropped);
  t.new_row().add("out of order").add(rel.out_of_order);
  std::printf("lost ranks: %s\n%s", lost.empty() ? "none" : lost.c_str(),
              t.str().c_str());
}

}  // namespace

static void print_trial(const seam::chaos_trial& trial) {
  table t({"metric", "value"});
  t.new_row().add("passed").add(trial.passed ? 1 : 0);
  t.new_row().add("max |chaos - baseline|").add(trial.max_abs_diff, 16);
  t.new_row().add("aborted").add(trial.aborted ? 1 : 0);
  // A SEAM restart re-slices the curve around the lost ranks: only their
  // segments move, 1/nproc of the elements per rank.
  if (trial.recoveries > 0 && trial.final_partition.num_parts > 0) {
    t.new_row().add("restart step").add(trial.restart_step);
    t.new_row().add("survivor ranks").add(trial.final_partition.num_parts);
    t.new_row().add("moved elements").add(trial.migration.moved_elements);
    t.new_row().add("moved fraction").add(trial.migration.moved_fraction, 4);
    t.new_row().add("1/nproc").add(
        1.0 / static_cast<double>(trial.per_rank_counters.size()), 4);
  }
  std::printf("%s\n", t.str().c_str());
  print_accounting(trial);
  if (!trial.passed) std::printf("FAIL: %s\n", trial.failure.c_str());
}

// Scheduled vs injected per fault kind, after a replay. The schedule is
// counted as the fabric sees it (to_fault_plan), so each row pairs a plan
// entry kind with its injected_* counter. A scheduled kind that injected
// nothing means the schedule no longer hits the frames it names and the
// replay proved nothing: returns false. Fewer injections than entries is
// not a failure on its own — faults that land on one message count once.
static bool print_replay_coverage(const seam::chaos_schedule& schedule,
                                  const seam::chaos_trial& trial) {
  using fault = runtime::fault_plan::message_fault;
  const runtime::fault_plan plan = seam::to_fault_plan(schedule);
  const auto scheduled = [&](double fault::*probability) {
    return static_cast<std::int64_t>(
        std::ranges::count_if(plan.message_faults, [&](const fault& f) {
          return f.*probability > 0;
        }));
  };
  const runtime::rank_counters& c = trial.counters;
  struct row {
    const char* kind;
    std::int64_t scheduled, injected;
  };
  const row rows[] = {
      {"drop", scheduled(&fault::drop_probability), c.injected_drops},
      {"duplicate", scheduled(&fault::duplicate_probability),
       c.injected_duplicates},
      {"corrupt", scheduled(&fault::corrupt_probability),
       c.injected_corruptions},
      {"truncate", scheduled(&fault::truncate_probability),
       c.injected_truncations},
      {"reorder", scheduled(&fault::reorder_probability),
       c.injected_reorders},
      {"kill", static_cast<std::int64_t>(plan.kills.size()),
       c.injected_kills}};
  table t({"fault kind", "scheduled", "injected"});
  std::string missed;
  for (const row& r : rows) {
    t.new_row().add(r.kind).add(r.scheduled).add(r.injected);
    if (r.scheduled > 0 && r.injected == 0)
      missed += (missed.empty() ? "" : ", ") + std::string(r.kind);
  }
  std::printf("%s", t.str().c_str());
  if (!missed.empty())
    std::printf("FAIL: scheduled but never injected: %s\n", missed.c_str());
  return missed.empty();
}

// Chaos from the command line. The advection harness checks SEAM
// advection against the fault-free run; `--partition` selects the
// partition harness, which checks the distributed partitioner against the
// serial plan. Both take message faults and rank kills under one kill
// contract (a fired kill loses its rank, and only a schedule that can
// exhaust the ladder may abort). Either harness then runs one of three
// paths: --replay reruns a schedule or reproducer (and also fails when a
// scheduled fault kind never fired), --kill-rank runs one directed kill,
// and otherwise a seeded soak runs and writes each failure's ddmin-shrunk
// reproducer for a later `sfcpart chaos --replay=FILE`.
int cmd_chaos(const cli_args& args) {
  const bool partition = args.has("partition");
  // --steps sizes the advection run and --nparts the partition plan; each
  // harness refuses the other's.
  if (!only_known_flags(args, {"partition", "kills", "kill-rank", "ne",
                               "nproc", partition ? "nparts" : "steps",
                               "seed", "faults", "replay", "trials",
                               "no-shrink", "out"}))
    return 2;
  const char* mode = partition ? "partition" : "advection";
  seam::chaos_options aopts;
  seam::partition_chaos_options popts;
  const int ne =
      static_cast<int>(args.get_int_or("ne", partition ? popts.ne : aopts.ne));
  const int nranks = static_cast<int>(
      args.get_int_or("nproc", partition ? popts.nranks : aopts.nranks));
  const mesh::cubed_sphere mesh(ne);
  if (nranks < 2 || nranks > mesh.num_elements()) {
    std::fprintf(stderr, "nproc must be in [2, %d]\n", mesh.num_elements());
    return 2;
  }
  std::unique_ptr<seam::chaos_target> harness;
  if (partition) {
    popts.ne = ne;
    popts.nranks = nranks;
    popts.nparts = static_cast<int>(args.get_int_or("nparts", popts.nparts));
    harness = std::make_unique<seam::partition_chaos_harness>(popts);
  } else {
    aopts.ne = ne;
    aopts.nranks = nranks;
    aopts.nsteps = static_cast<int>(args.get_int_or("steps", aopts.nsteps));
    harness = std::make_unique<seam::chaos_harness>(aopts);
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1000));
  // Only an advection soak draws message faults by default: a directed
  // kill runs alone unless --faults asks for more.
  const int nfaults = static_cast<int>(args.get_int_or(
      "faults", partition || args.has("kill-rank") ? 0 : 6));

  if (const auto replay = args.get("replay")) {
    std::ifstream is(*replay, std::ios::binary);
    if (!is.good()) {
      std::fprintf(stderr, "cannot open %s\n", replay->c_str());
      return 2;
    }
    std::ostringstream text;
    text << is.rdbuf();
    const io::json_value doc = io::parse_json(text.str());
    // Accept both a bare schedule and a soak reproducer (use its shrunk
    // schedule when present).
    const seam::chaos_schedule schedule = seam::chaos_schedule_from_json(
        doc.is_object() && doc.has("shrunk") ? doc.at("shrunk") : doc);
    std::printf("replaying %zu fault(s) + %zu kill(s), seed %llu:\n",
                schedule.faults.size(), schedule.kills.size(),
                static_cast<unsigned long long>(schedule.seed));
    const seam::chaos_trial trial = harness->run(schedule);
    print_trial(trial);
    const bool covered = print_replay_coverage(schedule, trial);
    return trial.passed && covered ? 0 : 1;
  }

  if (const auto text = args.get("kill-rank")) {
    // Directed single trial: one pinned kill (plus --faults message
    // faults, if given) instead of a randomized soak.
    seam::chaos_kill kill;
    if (!parse_kill_at(*text, &kill.rank, &kill.at_op)) {
      std::fprintf(stderr, "--kill-rank=%s: want R@N with N >= 1\n",
                   text->c_str());
      return 2;
    }
    if (kill.rank < 0 || kill.rank >= nranks) {
      std::fprintf(stderr, "kill-rank must be in [0, %d)\n", nranks);
      return 2;
    }
    seam::chaos_schedule schedule = harness->make_schedule(seed, nfaults);
    schedule.kills.push_back(kill);
    std::printf("%s harness, Ne=%d on %d ranks: killing rank %d at frame "
                "%lld...\n",
                mode, ne, nranks, kill.rank,
                static_cast<long long>(kill.at_op));
    const seam::chaos_trial trial = harness->run(schedule);
    print_trial(trial);
    return trial.passed ? 0 : 1;
  }

  const int trials = static_cast<int>(args.get_int_or("trials", 50));
  const int nkills =
      static_cast<int>(args.get_int_or("kills", partition ? 1 : 0));
  const bool shrink = !args.has("no-shrink");
  const std::string out =
      args.get_or("out", partition ? "chaos_partition" : "chaos");

  std::printf("soaking %d %s schedules of %d fault(s) + %d kill(s) "
              "(seed %llu) over Ne=%d, %d ranks...\n",
              trials, mode, nfaults, nkills,
              static_cast<unsigned long long>(seed), ne, nranks);
  const seam::soak_report report = seam::run_chaos_soak(
      *harness, seed, trials, nfaults, nkills, shrink);

  table t({"metric", "value"});
  t.new_row().add("trials").add(report.trials);
  t.new_row().add("failures").add(
      static_cast<std::int64_t>(report.failures.size()));
  t.new_row().add("recovered trials").add(report.recovered_trials);
  t.new_row().add("aborted trials").add(report.aborted_trials);
  t.new_row().add("data sent").add(report.reliable.data_sent);
  t.new_row().add("retransmits").add(report.reliable.retransmits);
  t.new_row().add("corruption detected").add(
      report.reliable.corruption_detected);
  t.new_row().add("duplicates dropped").add(report.reliable.dedup_dropped);
  t.new_row().add("out of order").add(report.reliable.out_of_order);
  std::printf("%s", t.str().c_str());

  const auto entries = [](const seam::chaos_schedule& s) {
    return s.faults.size() + s.kills.size();
  };
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    const seam::soak_failure& f = report.failures[i];
    const std::string path = out + ".fail" + std::to_string(i) + ".json";
    io::write_json_file(seam::soak_failure_to_json(f), path);
    std::printf("FAIL: %s\n  %zu schedule entries, shrunk to %zu — "
                "reproducer written to %s\n",
                f.trial.failure.c_str(), entries(f.schedule),
                entries(f.shrunk), path.c_str());
  }
  if (report.failures.empty())
    std::printf("all %d schedules passed\n", report.trials);
  return report.failures.empty() ? 0 : 1;
}

// Observed advection run: partition with the SFC, run the distributed
// step loop inside an obs::session (mgp kway runs too, so its phase
// histograms land in the dump), then write the Chrome-trace timeline and
// the metrics JSON and print per-rank summary tables joined from both.
int cmd_trace(const cli_args& args) {
  // The advection run is fixed at np = 4; a --np would not be read.
  if (!only_known_flags(args, {"ne", "nproc", "steps", "out"})) return 2;
  const int ne = static_cast<int>(args.get_int_or("ne", 4));
  const int nproc = static_cast<int>(args.get_int_or("nproc", 6));
  const int nsteps = static_cast<int>(args.get_int_or("steps", 4));
  const std::string out = args.get_or(
      "out", "trace_ne" + std::to_string(ne) + "_np" + std::to_string(nproc));
  const mesh::cubed_sphere mesh(ne);
  if (nproc < 1 || nproc > mesh.num_elements()) {
    std::fprintf(stderr, "nproc must be in [1, %d]\n", mesh.num_elements());
    return 2;
  }
  if (!core::sfc_supports_extended(ne)) {
    std::fprintf(stderr, "Ne=%d is not 2^n 3^m 5^p\n", ne);
    return 2;
  }

  obs::session session;  // resets the metrics registry, enables tracing
  obs::trace::set_thread_name("main");

  const auto curve = core::build_cube_curve_extended(mesh);  // core.stitch
  const auto part = core::sfc_partition(curve, nproc);
  {
    // Exercise the multilevel partitioner so mgp.* phase timings show up
    // alongside the runtime spans.
    SFP_TRACE_SCOPE_CAT("mgp.partition_graph", "mgp");
    (void)mgp::partition_graph(mesh.dual_graph(), nproc, {});
  }

  seam::advection_model model(mesh, 4);
  model.set_field([](mesh::vec3 p) {
    return std::exp(-6.0 * ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
  });
  const double dt = model.cfl_dt(0.3);
  seam::dist_stats stats;
  (void)seam::run_distributed(model, part, dt, nsteps, &stats);

  const obs::trace_dump dump = session.finish();
  const obs::metrics_snapshot snap = obs::registry::global().snapshot();
  io::write_chrome_trace_file(out + ".trace.json", dump, &snap);
  io::write_metrics_json_file(out + ".metrics.json", snap);

  // Per-rank timeline: sum span durations by name for each "rank N" thread
  // and join with the fabric's per-rank counters. Compute is the element
  // passes: the kernel, the stage update fused into it and the own-copy DSS
  // sums. The halo spans split each exchange into packing + sending and
  // waiting on peers' partials.
  struct rank_row {
    double step_ms = 0, compute_ms = 0, exchange_ms = 0;
    double pack_ms = 0, recv_ms = 0;
  };
  std::map<int, rank_row> rows;
  for (const auto& th : dump.threads) {
    if (th.name.rfind("rank ", 0) != 0) continue;
    const int r = std::atoi(th.name.c_str() + 5);
    rank_row& row = rows[r];
    for (const auto& ev : th.events) {
      const double ms = static_cast<double>(ev.dur_ns) / 1e6;
      const std::string_view n = ev.name;
      if (n == "seam.step") row.step_ms += ms;
      else if (n == "seam.compute") row.compute_ms += ms;
      else if (n == "seam.exchange") row.exchange_ms += ms;
      else if (n == "halo.pack") row.pack_ms += ms;
      else if (n == "halo.recv") row.recv_ms += ms;
    }
  }
  table t({"rank", "step ms", "compute ms", "exchange ms", "pack ms",
           "recv ms", "msgs", "doubles"});
  for (const auto& [r, row] : rows) {
    auto& tr = t.new_row();
    tr.add(r)
        .add(row.step_ms, 2)
        .add(row.compute_ms, 2)
        .add(row.exchange_ms, 2)
        .add(row.pack_ms, 2)
        .add(row.recv_ms, 2);
    if (r < static_cast<int>(stats.per_rank.size())) {
      const auto& c = stats.per_rank[static_cast<std::size_t>(r)];
      tr.add(c.messages_sent).add(c.doubles_sent);
    } else {
      tr.add(0).add(0);
    }
  }
  std::printf("per-rank timeline (%d steps, %d ranks):\n%s", nsteps, nproc,
              t.str().c_str());

  // Message volume, from the registry (wire deliveries, duplicates
  // included).
  table vt({"counter", "value"});
  for (const auto& c : snap.counters)
    if (c.name == "runtime.messages_sent" || c.name == "runtime.doubles_sent")
      vt.new_row().add(c.name).add(c.value);
  std::printf("\nmessage volume:\n%s", vt.str().c_str());

  std::int64_t dropped = 0;
  for (const auto& th : dump.threads) dropped += th.dropped;
  std::printf("\nwrote %s.trace.json (%zu threads%s) — load in Perfetto or "
              "chrome://tracing\nwrote %s.metrics.json (%zu counters, %zu "
              "histograms)\n",
              out.c_str(), dump.threads.size(),
              dropped ? (", " + std::to_string(dropped) + " dropped").c_str()
                      : "",
              out.c_str(), snap.counters.size(), snap.histograms.size());
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const cli_args args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string cmd = args.positional()[0];
  try {
    if (cmd == "info") return cmd_info(args);
    if (cmd == "partition") return cmd_partition(args);
    if (cmd == "curve") return cmd_curve(args);
    if (cmd == "figure") return cmd_figure(args);
    if (cmd == "validate") return cmd_validate(args);
    if (cmd == "chaos") return cmd_chaos(args);
    if (cmd == "trace") return cmd_trace(args);
  } catch (const contract_error& e) {
    // The check site's message names the bad input; the expression and
    // source location in what() are for developers.
    std::fprintf(stderr, "error: %s\n", e.message().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
