// End-to-end and per-layer benchmark of the user's path through sfcpart:
// mesh -> cube curve -> slice -> metrics, the distributed partitioner, and
// the distributed SEAM advection step. See README.md next to this file for
// the workloads, the metrics and why each exists.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--perturb]
//
// Each workload is a closed loop: one client issues ops back to back and
// checks every result against a reference built in set-up. The last line of
// standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). --tiny shrinks every size and --perturb corrupts every op's
// output before it is checked; both exist for selftest.py only.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <map>
#include <unordered_map>
#include <memory>
#include <numbers>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/dist_scan.hpp"
#include "core/parallel_partition.hpp"
#include "core/sfc_partition.hpp"
#include "core/validate.hpp"
#include "graph/csr.hpp"
#include "mesh/cubed_sphere.hpp"
#include "obs/trace.hpp"
#include "partition/metrics.hpp"
#include "partition/partition.hpp"
#include "runtime/partition_fabric.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"
#include "seam/exchange.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace sfp;

// ---- small helpers -------------------------------------------------------

using wall_clock = std::chrono::steady_clock;

double seconds_since(wall_clock::time_point t0) {
  return std::chrono::duration<double>(wall_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

/// What the end-to-end gate reads off a plan: the weighted total
/// communication volume, and max/avg part weight. The latter is
/// 1 / (1 - LB) for the paper's eq. 1 LB, so it carries the same information
/// but is 1, not 0, for a perfectly balanced plan.
struct plan_quality {
  double tcv_weighted = 0.0;
  double load_ratio = 0.0;
};

plan_quality quality_of(const partition::metrics& m) {
  const std::span<const graph::weight> load(m.weight_per_part);
  return {m.tcv_weighted, max_of(load) / mean_of(load)};
}

/// The mesh's dual graph with `weights` as its vertex weights.
graph::csr weighted_dual(const mesh::cubed_sphere& mesh,
                         std::vector<graph::weight> weights) {
  const graph::csr g = mesh.dual_graph();
  return graph::csr({g.xadj().begin(), g.xadj().end()},
                    {g.adjncy().begin(), g.adjncy().end()}, std::move(weights),
                    {g.adjwgt().begin(), g.adjwgt().end()});
}

// ---- per-layer view of a trace -------------------------------------------

/// Spans of a collected trace, grouped for the per-layer metrics.
struct trace_summary {
  /// Durations in seconds of every span, by span name.
  std::map<std::string, std::vector<double>> durations;
  /// Self time (span minus the time its child spans on the same thread
  /// cover), summed over every thread, by layer; only spans that start
  /// inside the timed window count.
  std::map<std::string, double> self_s;

  const std::vector<double>& spans(const std::string& name) const {
    static const std::vector<double> none;
    const auto it = durations.find(name);
    return it == durations.end() ? none : it->second;
  }
  double median_s(const std::string& name) const { return median(spans(name)); }
  /// `<workload>.<layer>.self_s_per_op` for each of `layers`.
  void self_per_op(const std::string& workload,
                   std::initializer_list<const char*> layers, double ops,
                   std::vector<metric>& out) const {
    for (const char* layer : layers) {
      const auto it = self_s.find(layer);
      out.push_back({workload + "." + layer + ".self_s_per_op",
                     it == self_s.end() ? 0.0 : it->second / std::max(1.0, ops),
                     "s"});
    }
  }
};

/// A span's layer is its category; the library's generic categories fall
/// back to the prefix of the span name ("core.stitch" -> "core").
std::string layer_of(const obs::trace_event& e) {
  const std::string cat = e.category;
  if (cat != "phase" && cat != "app") return cat;
  const std::string name = e.name;
  return name.substr(0, name.find('.'));
}

trace_summary summarize(const obs::trace_dump& dump, std::int64_t window_begin,
                        std::int64_t window_end) {
  trace_summary out;
  for (const obs::thread_trace& t : dump.threads) {
    std::vector<obs::trace_event> ev = t.events;
    std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                      : a.dur_ns > b.dur_ns;
    });
    std::vector<std::int64_t> child_ns(ev.size(), 0);
    std::vector<std::size_t> open;  // stack of enclosing spans
    for (std::size_t i = 0; i < ev.size(); ++i) {
      while (!open.empty() && ev[i].start_ns >= ev[open.back()].start_ns +
                                                    ev[open.back()].dur_ns)
        open.pop_back();
      if (!open.empty()) child_ns[open.back()] += ev[i].dur_ns;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < ev.size(); ++i) {
      out.durations[ev[i].name].push_back(static_cast<double>(ev[i].dur_ns) *
                                          1e-9);
      if (ev[i].start_ns >= window_begin && ev[i].start_ns < window_end)
        out.self_s[layer_of(ev[i])] +=
            static_cast<double>(ev[i].dur_ns - child_ns[i]) * 1e-9;
    }
  }
  return out;
}

// ---- workloads -------------------------------------------------------------

/// One closed-loop workload. setup() builds every input and reference from
/// scratch; op() is one call of the program path under test and keeps its
/// output; check() compares that output with the reference.
class workload {
 public:
  virtual ~workload() = default;

  virtual void setup() = 0;
  virtual void op() = 0;
  /// `perturb` corrupts the output first, so the self-test can see that a
  /// wrong result is counted as a failure.
  virtual bool check(bool perturb) = 0;
  /// Elements processed by one op (element-steps for SEAM).
  virtual std::int64_t elements_per_op() const = 0;
  /// Quality of the plan the workload produced or ran on.
  virtual plan_quality quality() const = 0;

  /// Forget the per-op reports gathered so far (start of the traced window).
  virtual void clear_records() {}
  /// Traced run only: isolated measurements of single layers, run after the
  /// traced window.
  virtual void probes() {}
  /// Traced run only: this workload's per-layer metrics.
  virtual void layer_metrics(const trace_summary& trace,
                             std::vector<metric>& out) const = 0;
};

struct sizes {
  int serial_ne, serial_parts;
  int dist_ne, dist_parts, dist_ranks;
  int seam_ne, seam_np, seam_ranks, seam_steps;
};

// K = 55,296 at about 8 elements per part (the paper's O(1)-O(10) regime;
// Ne = 2^5*3 runs Hilbert and Peano levels). K = 393,216 for the distributed
// partitioner, whose mesh is set-up only. K = 6,144 at np = 8 for SEAM.
constexpr sizes standard_sizes{96, 6912, 256, 1536, 2, 32, 8, 3, 10};
constexpr sizes tiny_sizes{12, 108, 12, 24, 2, 4, 4, 3, 10};

/// `sfcpart partition` in process, unit weights: the whole serial path.
class serial_plan final : public workload {
 public:
  explicit serial_plan(const sizes& s) : ne_(s.serial_ne), parts_(s.serial_parts) {}

  void setup() override {
    reference_ = {};
    op();
    const diagnostic d = core::validate_plan(plan_, *curve_);
    if (!d) throw std::runtime_error("reference plan invalid: " + d.to_string());
    reference_ = plan_;
  }

  void op() override {
    obs::trace_scope op_span("serial-plan.op", "bench");
    const mesh::cubed_sphere mesh = [&] {
      obs::trace_scope s("mesh.build", "mesh");
      return mesh::cubed_sphere(ne_);
    }();
    {
      obs::trace_scope s("core.cube_curve", "core");
      curve_ = core::build_cube_curve(mesh);
    }
    const graph::csr dual = [&] {
      obs::trace_scope s("mesh.dual_graph", "mesh");
      return mesh.dual_graph();
    }();
    {
      obs::trace_scope s("core.slice", "core");
      plan_ = core::sfc_partition(*curve_, parts_);
    }
    obs::trace_scope s("partition.metrics", "partition");
    metrics_ = partition::compute_metrics(dual, plan_);
  }

  bool check(bool perturb) override {
    if (perturb) {
      auto& label = plan_.part_of[static_cast<std::size_t>(curve_->order[0])];
      label = (label + 1) % parts_;
    }
    return plan_.part_of == reference_.part_of &&
           core::validate_plan(plan_, *curve_).ok;
  }

  std::int64_t elements_per_op() const override { return 6LL * ne_ * ne_; }

  plan_quality quality() const override { return quality_of(metrics_); }

  void layer_metrics(const trace_summary& t,
                     std::vector<metric>& out) const override {
    const double ns_per_elem = 1e9 / static_cast<double>(elements_per_op());
    const auto per_elem = [&](const char* span_name) {
      return t.median_s(span_name) * ns_per_elem;
    };
    out.push_back({"mesh.build_ns_per_elem", per_elem("mesh.build"), "ns/elem"});
    out.push_back({"mesh.dual_graph_ns_per_elem", per_elem("mesh.dual_graph"), "ns/elem"});
    out.push_back({"core.cube_curve_ns_per_elem", per_elem("core.cube_curve"), "ns/elem"});
    out.push_back({"core.slice_ns_per_elem", per_elem("core.slice"), "ns/elem"});
    out.push_back({"partition.metrics_ns_per_elem", per_elem("partition.metrics"), "ns/elem"});
    t.self_per_op("serial-plan", {"mesh", "core", "partition"},
                  static_cast<double>(t.spans("serial-plan.op").size()), out);
  }

 private:
  int ne_, parts_;
  partition::partition reference_;
  std::optional<core::cube_curve> curve_;
  partition::partition plan_;
  partition::metrics metrics_;
};

/// runtime::run_parallel_partition on the in-process backend with seeded
/// heavy-tail weights; the mesh, spec and weights are set-up.
class dist_plan final : public workload {
 public:
  dist_plan(const sizes& s, std::uint64_t seed)
      : ne_(s.dist_ne), parts_(s.dist_parts), ranks_(s.dist_ranks), seed_(seed) {}

  void setup() override {
    graph_.reset();
    curve_.reset();
    mesh_.reset();
    const std::int64_t k = 6LL * ne_ * ne_;
    // Weights 1-9, times 100 with probability 1/16: a heavy tail that sends
    // the slice through histogram refinement rather than a count split.
    rng gen(seed_);
    weights_.assign(static_cast<std::size_t>(k), 0);
    for (auto& w : weights_) {
      w = 1 + static_cast<graph::weight>(gen.below(9));
      if (gen.below(16) == 0) w *= 100;
    }
    {
      obs::trace_scope s("mesh.build", "mesh");
      mesh_.emplace(ne_);
    }
    spec_ = core::build_cube_curve_spec(*mesh_);
    {
      obs::trace_scope s("core.cube_curve", "core");
      curve_.emplace(core::build_cube_curve(*mesh_));
    }
    {
      obs::trace_scope s("core.slice", "core");
      reference_ = core::sfc_partition(*curve_, parts_, weights_);
    }
    obs::trace_scope s("mesh.dual_graph", "mesh");
    graph_.emplace(weighted_dual(*mesh_, weights_));
  }

  void op() override {
    obs::trace_scope op_span("dist-plan.op", "bench");
    obs::trace_scope s("runtime.run_parallel_partition", "runtime");
    report_ = runtime::run_parallel_partition(*mesh_, spec_, parts_, weights_,
                                              ranks_, run_options_);
    const core::parallel_partition_stats& rank0 = report_.rank_stats[0];
    records_.push_back({rank0.rounds, rank0.probes_evaluated,
                        rank0.window_records, report_.reliable.retransmits,
                        report_.counters.messages_sent,
                        report_.counters.doubles_sent, report_.recoveries});
  }

  bool check(bool perturb) override {
    if (report_.aborted) {
      std::fprintf(stderr, "dist-plan: run aborted after %d recoveries\n",
                   report_.recoveries);
      return false;
    }
    if (perturb) {
      auto& label = report_.plan.part_of[0];
      label = (label + 1) % parts_;
    }
    return report_.plan.part_of == reference_.part_of;
  }

  std::int64_t elements_per_op() const override { return 6LL * ne_ * ne_; }

  plan_quality quality() const override {
    return quality_of(partition::compute_metrics(*graph_, report_.plan));
  }

  void clear_records() override { records_.clear(); }

  void probes() override {
    // The same op on one rank: no fabric, so the difference is its cost.
    for (int i = 0; i < 5; ++i) {
      obs::trace_scope s("runtime.run_parallel_partition.1rank", "runtime");
      (void)runtime::run_parallel_partition(*mesh_, spec_, parts_, weights_, 1);
    }
    const std::int64_t k = mesh_->num_elements();
    const std::int64_t block = core::element_block_begin(k, ranks_, 1);
    std::vector<std::int64_t> keys(static_cast<std::size_t>(block));
    for (int i = 0; i < 3; ++i) {
      obs::trace_scope s("core.curve_position_of", "core");
      for (std::int64_t e = 0; e < block; ++e)
        keys[static_cast<std::size_t>(e)] =
            core::curve_position_of(spec_, *mesh_, static_cast<int>(e));
    }
    // Splitter search alone, over all keys on one rank: keys in curve order
    // are 0..K-1, weighted by the element at each position.
    std::vector<std::int64_t> sorted_keys(static_cast<std::size_t>(k));
    std::iota(sorted_keys.begin(), sorted_keys.end(), std::int64_t{0});
    std::vector<graph::weight> sorted_weights(static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < sorted_weights.size(); ++i)
      sorted_weights[i] =
          weights_[static_cast<std::size_t>(curve_->order[i])];
    const graph::weight total = std::accumulate(
        weights_.begin(), weights_.end(), graph::weight{0});
    for (int i = 0; i < 5; ++i) {
      core::solo_comm solo;
      obs::trace_scope s("core.find_raw_splitters", "core");
      (void)core::find_raw_splitters(solo, sorted_keys, sorted_weights, k,
                                     total, parts_);
    }
  }

  void layer_metrics(const trace_summary& t,
                     std::vector<metric>& out) const override {
    const std::int64_t k = 6LL * ne_ * ne_;
    const double block = static_cast<double>(
        core::element_block_begin(k, ranks_, 1));
    out.push_back({"core.key_ns_per_elem",
                   t.median_s("core.curve_position_of") * 1e9 / block, "ns/elem"});
    out.push_back({"core.splitter_search_s",
                   t.median_s("core.find_raw_splitters"), "s"});
    const double n = std::max(1.0, static_cast<double>(records_.size()));
    double rounds = 0, probes = 0, window = 0, retransmits = 0, messages = 0,
           doubles = 0, recoveries = 0;
    for (const record& r : records_) {
      rounds += r.rounds;
      probes += static_cast<double>(r.probes);
      window += static_cast<double>(r.window_records);
      retransmits += static_cast<double>(r.retransmits);
      messages += static_cast<double>(r.messages);
      doubles += static_cast<double>(r.doubles);
      recoveries += r.recoveries;
    }
    out.push_back({"core.splitter_rounds", rounds / n, "count"});
    out.push_back({"core.splitter_probes", probes / n, "count"});
    out.push_back({"core.window_records", window / n, "count"});
    out.push_back({"runtime.fabric_overhead_s",
                   t.median_s("runtime.run_parallel_partition") -
                       t.median_s("runtime.run_parallel_partition.1rank"),
                   "s"});
    out.push_back({"runtime.retransmits_per_op", retransmits / n, "count"});
    out.push_back({"runtime.messages_per_op", messages / n, "count"});
    out.push_back({"runtime.doubles_per_op", doubles / n, "count"});
    out.push_back({"runtime.recoveries", recoveries, "count"});
    t.self_per_op("dist-plan", {"runtime", "core"}, n, out);
  }

 private:
  int ne_, parts_, ranks_;
  std::uint64_t seed_;
  /// The default retransmit budget (40 attempts at <= 2.2 ms backoff, about
  /// 80 ms) is shorter than one rank's key phase, during which it does not
  /// pump its channel; on a shared host a fault-free run then declares its
  /// busy peer dead and aborts. A budget as long as the 2 s receive timeout
  /// keeps fault-free runs alive; the spurious retransmits still show in
  /// runtime.retransmits_per_op.
  runtime::parallel_partition_run_options run_options_ = [] {
    runtime::parallel_partition_run_options o;
    o.reliable.max_retransmits = 1000;
    return o;
  }();
  std::vector<graph::weight> weights_;
  std::optional<mesh::cubed_sphere> mesh_;
  core::cube_curve_spec spec_;
  std::optional<core::cube_curve> curve_;
  std::optional<graph::csr> graph_;
  partition::partition reference_;
  runtime::parallel_partition_report report_;
  /// What each op's report counted: rank 0's splitter search, fabric totals.
  struct record {
    int rounds;
    std::int64_t probes, window_records, retransmits, messages, doubles;
    int recoveries;
  };
  std::vector<record> records_;
};

/// seam::run_distributed over an SFC plan, from a seeded initial field,
/// checked against the same number of serial steps.
class seam_advection final : public workload {
 public:
  seam_advection(const sizes& s, std::uint64_t seed)
      : ne_(s.seam_ne), np_(s.seam_np), ranks_(s.seam_ranks),
        steps_(s.seam_steps), seed_(seed) {}

  void setup() override {
    model_.reset();
    mesh_.reset();
    {
      obs::trace_scope s("mesh.build", "mesh");
      mesh_.emplace(ne_);
    }
    {
      // A Gaussian blob at a seeded centre with a seeded width.
      rng gen(seed_);
      const double z = gen.uniform(-1.0, 1.0);
      const double phi = gen.uniform(0.0, 2.0 * std::numbers::pi);
      const double r = std::sqrt(1.0 - z * z);
      const mesh::vec3 centre{r * std::cos(phi), r * std::sin(phi), z};
      const double width = gen.uniform(0.3, 0.6);
      obs::trace_scope s("seam.model_setup", "seam");
      model_.emplace(*mesh_, np_);
      model_->set_field([&](mesh::vec3 p) {
        const mesh::vec3 d = p - centre;
        return std::exp(-mesh::dot(d, d) / (width * width));
      });
    }
    const core::cube_curve curve = [&] {
      obs::trace_scope s("core.cube_curve", "core");
      return core::build_cube_curve(*mesh_);
    }();
    {
      obs::trace_scope s("core.slice", "core");
      plan_ = core::sfc_partition(curve, ranks_);
    }
    const graph::csr dual = [&] {
      obs::trace_scope s("mesh.dual_graph", "mesh");
      return mesh_->dual_graph();
    }();
    {
      obs::trace_scope s("partition.metrics", "partition");
      quality_ = quality_of(partition::compute_metrics(dual, plan_));
    }
    dt_ = model_->cfl_dt(0.3);
    const std::vector<double> initial(model_->field().begin(),
                                      model_->field().end());
    for (int i = 0; i < steps_; ++i) {
      obs::trace_scope s("seam.serial_step", "seam");
      model_->step(dt_);
    }
    reference_.assign(model_->field().begin(), model_->field().end());
    std::copy(initial.begin(), initial.end(), model_->mutable_field().begin());
  }

  void op() override {
    obs::trace_scope op_span("seam-advection.op", "bench");
    obs::trace_scope s("seam.run_distributed", "seam");
    seam::dist_stats stats;
    field_ = seam::run_distributed(*model_, plan_, dt_, steps_, &stats);
    records_.push_back(stats);
  }

  bool check(bool perturb) override {
    if (perturb) field_[0] += 1e-9;
    if (field_.size() != reference_.size()) return false;
    for (std::size_t i = 0; i < field_.size(); ++i)
      if (!(std::abs(field_[i] - reference_[i]) <= 1e-12)) return false;
    return true;
  }

  std::int64_t elements_per_op() const override {
    return 6LL * ne_ * ne_ * steps_;
  }

  plan_quality quality() const override { return quality_; }

  void clear_records() override { records_.clear(); }

  void probes() override {
    for (int i = 0; i < 5; ++i) {
      obs::trace_scope s("seam.exchange_plan", "seam");
      (void)seam::exchange_plan::build(model_->dofs(), plan_);
    }
    std::vector<double> out(model_->field().size());
    for (int i = 0; i < 5; ++i) {
      obs::trace_scope s("seam.tendency", "seam");
      model_->tendency(model_->field(), out);
    }
  }

  void layer_metrics(const trace_summary& t,
                     std::vector<metric>& out) const override {
    const double k = 6.0 * ne_ * ne_;
    std::vector<double> max_rank, compute, exchange, overhead;
    double messages = 0, doubles = 0;
    const std::vector<double>& op_s = t.spans("seam.run_distributed");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const seam::dist_stats& r = records_[i];
      max_rank.push_back(r.max_rank_seconds);
      compute.push_back(r.compute_seconds);
      exchange.push_back(r.exchange_seconds);
      // Ops run in order, so the i-th recorded op is the i-th span.
      if (i < op_s.size()) overhead.push_back(op_s[i] - r.max_rank_seconds);
      messages += static_cast<double>(r.messages);
      doubles += static_cast<double>(r.doubles_sent);
    }
    const double step_count =
        static_cast<double>(std::max<std::size_t>(1, records_.size())) * steps_;
    out.push_back({"seam.model_setup_s", t.median_s("seam.model_setup"), "s"});
    out.push_back({"seam.exchange_plan_s", t.median_s("seam.exchange_plan"), "s"});
    out.push_back({"seam.driver_overhead_s", median(overhead), "s"});
    out.push_back({"seam.tendency_ns_per_elem",
                   t.median_s("seam.tendency") * 1e9 / k, "ns/elem"});
    out.push_back({"seam.serial_step_s", t.median_s("seam.serial_step"), "s"});
    out.push_back({"seam.max_rank_s", median(max_rank), "s"});
    out.push_back({"seam.compute_s", median(compute), "s"});
    out.push_back({"seam.exchange_s", median(exchange), "s"});
    out.push_back({"seam.messages_per_step", messages / step_count, "count"});
    out.push_back({"seam.doubles_per_step", doubles / step_count, "count"});
    t.self_per_op("seam-advection", {"seam", "runtime"},
                  static_cast<double>(records_.size()), out);
  }

 private:
  int ne_, np_, ranks_, steps_;
  std::uint64_t seed_;
  std::optional<mesh::cubed_sphere> mesh_;
  std::optional<seam::advection_model> model_;
  partition::partition plan_;
  plan_quality quality_;
  double dt_ = 0.0;
  std::vector<double> reference_;
  std::vector<double> field_;
  std::vector<seam::dist_stats> records_;
};

const char* const workload_names[] = {"serial-plan", "dist-plan", "seam-advection"};

std::unique_ptr<workload> make_workload(const std::string& name,
                                        const sizes& s, std::uint64_t seed) {
  if (name == "serial-plan") return std::make_unique<serial_plan>(s);
  if (name == "dist-plan") return std::make_unique<dist_plan>(s, seed);
  if (name == "seam-advection") return std::make_unique<seam_advection>(s, seed);
  return nullptr;
}

// ---- host speed -------------------------------------------------------------

// The host's speed drifts by up to +-20% over seconds to minutes (CPU steal
// from other tenants), and it moves every workload's wall time together.
// A fixed single-threaded kernel that calls no sfcpart code runs between the
// timed steps; the gated times are scaled by reference / its median time,
// i.e. reported in seconds of a host on which the kernel takes
// `reference_calibration_s`. A change to the program moves the op times but
// not the kernel.
constexpr double reference_calibration_s = 4e-3;

/// Keeps the compiler from dropping the kernel's work.
std::atomic<std::uint64_t> calibration_sink{0};

/// Hash-map inserts and a sort, like the mesh build's mix of hashing,
/// allocation and scattered reads; about 4 ms.
double calibration_s() {
  const auto t0 = wall_clock::now();
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  for (int i = 0; i < 30000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ++counts[x % 40000];
  }
  std::vector<std::uint64_t> keys;
  for (const auto& [key, count] : counts) keys.push_back(key * count);
  std::sort(keys.begin(), keys.end());
  calibration_sink.store(keys[keys.size() / 2], std::memory_order_relaxed);
  return seconds_since(t0);
}

/// Factor that turns wall seconds measured next to `calibration` samples
/// into reference seconds.
double to_reference(const std::vector<double>& calibration) {
  return reference_calibration_s / median(calibration);
}

// ---- the closed loop --------------------------------------------------------

struct window {
  std::vector<double> op_s;  ///< latency of every op attempted
  std::vector<double> calibration_s;  ///< the kernel, once after every op
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t elements = 0;  ///< elements of the ops that passed their check
  double busy_s = 0.0;        ///< summed op latency; checks excluded

  double elems_per_s() const {
    return busy_s > 0 ? static_cast<double>(elements) / busy_s : 0.0;
  }
  /// Per second of the reference host.
  double elems_per_reference_s() const {
    return elems_per_s() / to_reference(calibration_s);
  }
};

/// Issue ops back to back for `seconds` (and at least `min_ops`), checking
/// each. An op that throws or fails its check counts as failed.
window run_window(workload& w, double seconds, int min_ops, bool perturb) {
  window r;
  const auto t0 = wall_clock::now();
  while (r.attempted < min_ops || seconds_since(t0) < seconds) {
    const auto start = wall_clock::now();
    bool ok = true;
    try {
      w.op();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %lld threw: %s\n",
                   static_cast<long long>(r.attempted), e.what());
      ok = false;
    }
    const double latency = seconds_since(start);
    ok = ok && w.check(perturb);
    r.calibration_s.push_back(calibration_s());
    r.op_s.push_back(latency);
    r.busy_s += latency;
    ++r.attempted;
    if (ok) r.elements += w.elements_per_op();
    else ++r.failed;
  }
  return r;
}

/// Set-up plus one untimed warm-up op, whose failure the timed ops will show.
void setup_and_warm(workload& w) {
  w.setup();
  try {
    w.op();
  } catch (const std::exception&) {
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(std::int64_t attempted, std::int64_t failed,
                  const std::vector<metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serial-plan|dist-plan|seam-advection"
               " --seed N --seconds S --trace 0|1 [--tiny] [--perturb]\n");
  return 2;
}

bool parse(int argc, char** argv, options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") o.tiny = true;
    else if (a == "--perturb") o.perturb = true;
    else if (a == "--workload" && has_value) o.workload = argv[++i];
    else if (a == "--seed" && has_value) o.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value) o.seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--trace" && has_value) o.trace = std::string(argv[++i]) == "1";
    else return false;
  }
  return o.seconds > 0;
}

/// End-to-end run: the gate's metrics, measured with tracing off.
int run_end_to_end(const options& o, const sizes& s) {
  const std::unique_ptr<workload> w = make_workload(o.workload, s, o.seed);
  // Set-up repeats, at least 3 times and for at least 2 s, so its median is
  // steady; each round rebuilds everything.
  std::vector<double> setup_s, setup_calibration_s;
  double rss_mb = 0.0;
  const auto setup_start = wall_clock::now();
  while (setup_s.size() < 3 || seconds_since(setup_start) < 2.0) {
    const auto t0 = wall_clock::now();
    setup_and_warm(*w);
    setup_s.push_back(seconds_since(t0));
    for (int i = 0; i < 5; ++i) setup_calibration_s.push_back(calibration_s());
    // The first round has made every allocation an op makes; later rounds
    // and ops only add allocator fragmentation, which varies with how many
    // fit in the time.
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();
  }
  const window r = run_window(*w, o.seconds, 5, o.perturb);
  const plan_quality q = w->quality();
  const std::vector<metric> metrics = {
      {"setup_s", median(setup_s) * to_reference(setup_calibration_s), "s"},
      {"elems_per_s", r.elems_per_reference_s(), "elements/s"},
      {"op_s_p50", median(r.op_s) * to_reference(r.calibration_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"ok_frac",
       static_cast<double>(r.attempted - r.failed) / static_cast<double>(r.attempted),
       "fraction"},
      {"plan_tcv_weighted", q.tcv_weighted, "GLL_points"},
      {"plan_load_ratio", q.load_ratio, "ratio"},
  };
  std::printf("# workload %s seed %llu: %lld ops in %.3f s busy, %lld failed; "
              "op_s_p50 over %zu samples; setup_s median of %zu rounds\n"
              "# wall clock: setup_s %.4f, elems_per_s %.1f, op_s_p50 %.4f; "
              "calibration kernel median %.3f ms in set-up, %.3f ms in ops\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<long long>(r.attempted), r.busy_s,
              static_cast<long long>(r.failed), r.op_s.size(), setup_s.size(),
              median(setup_s), r.elems_per_s(), median(r.op_s),
              median(setup_calibration_s) * 1e3, median(r.calibration_s) * 1e3);
  print_result(r.attempted, r.failed, metrics);
  return 0;
}

/// Traced run: the selected workload runs one untraced and one traced
/// window of half the time each (their ratio is the tracing overhead);
/// every other workload runs a short traced window, so each layer's metrics
/// come from the workload whose path runs that layer.
int run_traced(const options& o, const sizes& s) {
  std::vector<metric> metrics;
  std::int64_t attempted = 0, failed = 0;
  window untraced;
  {
    const std::unique_ptr<workload> w = make_workload(o.workload, s, o.seed);
    setup_and_warm(*w);
    untraced = run_window(*w, o.seconds / 2, 5, o.perturb);
    attempted += untraced.attempted;
    failed += untraced.failed;
  }
  for (const std::string name : workload_names) {
    const bool selected = name == o.workload;
    const std::unique_ptr<workload> w = make_workload(name, s, o.seed);
    obs::trace::enable();
    setup_and_warm(*w);
    w->clear_records();
    const std::int64_t begin = obs::now_ns();
    const window traced =
        run_window(*w, selected ? o.seconds / 2 : std::min(1.0, o.seconds / 2),
                   selected ? 5 : 3, o.perturb);
    const std::int64_t end = obs::now_ns();
    w->probes();
    obs::trace::disable();
    const trace_summary summary = summarize(obs::trace::collect(), begin, end);
    w->layer_metrics(summary, metrics);
    attempted += traced.attempted;
    failed += traced.failed;
    if (selected) {
      metrics.push_back({"obs.trace_overhead_frac",
                         1.0 - traced.elems_per_reference_s() /
                                   untraced.elems_per_reference_s(),
                         "fraction"});
      metrics.push_back({"op_s_p90", percentile(untraced.op_s, 0.9), "s"});
    }
  }
  std::printf("# workload %s seed %llu traced: op_s_p90 over %zu untraced samples\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              untraced.op_s.size());
  print_result(attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  if (!parse(argc, argv, o)) return usage();
  const sizes& s = o.tiny ? tiny_sizes : standard_sizes;
  if (!make_workload(o.workload, s, o.seed)) return usage();
  try {
    return o.trace ? run_traced(o, s) : run_end_to_end(o, s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
