#include "seam/distributed.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <limits>
#include <mutex>
#include <ranges>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/fabric.hpp"
#include "runtime/reliable.hpp"
#include "seam/exchange.hpp"
#include "seam/rk3.hpp"
#include "util/contract.hpp"
#include "util/stopwatch.hpp"

namespace sfp::seam {

namespace {

/// Shared accounting across ranks.
struct stats_collector {
  std::mutex mutex;
  dist_stats total;

  void add(double compute_s, double exchange_s, std::int64_t messages,
           std::int64_t doubles_sent) {
    std::lock_guard<std::mutex> lock(mutex);
    total.compute_seconds += compute_s;
    total.exchange_seconds += exchange_s;
    total.messages += messages;
    total.doubles_sent += doubles_sent;
    total.max_rank_seconds =
        std::max(total.max_rank_seconds, compute_s + exchange_s);
  }
};

void require_run_args(double dt, int nsteps) {
  SFP_REQUIRE(nsteps >= 0, "step count must be non-negative");
  SFP_REQUIRE(dt > 0, "timestep must be positive");
}

/// The partition a run is handed, checked once on the calling thread
/// before any rank starts (each rank then plans its own halo from it):
/// one label per element, every label in range, every part non-empty.
void require_runnable(const partition::partition& part, int num_elements) {
  SFP_REQUIRE(part.num_parts >= 1, "partition needs at least one part");
  SFP_REQUIRE(part.part_of.size() == static_cast<std::size_t>(num_elements),
              "partition must label every mesh element");
  for (const graph::vid p : part.part_of)
    SFP_REQUIRE(p >= 0 && p < part.num_parts,
                "partition has a part label out of range");
  SFP_REQUIRE(partition::all_parts_nonempty(part),
              "partition has an empty part: every rank must own an element");
}

/// One vector per prognostic field: in the rank-local layout inside a rank
/// body, in the global layout in the buffers a run shares between ranks
/// (see seam/distributed.hpp).
using field_list = std::vector<std::vector<double>>;

/// Calls fn(global, local) for every owned node of `rp`, in slot order:
/// its flat index in the global field layout and in the rank-local one.
template <typename Fn>
void for_each_owned_node(const rank_exchange_plan& rp, Fn&& fn) {
  const std::size_t n = rp.slot_size();
  std::size_t local = 0;
  for (const int e : rp.owned)
    for (std::size_t k = 0; k < n; ++k, ++local)
      fn(static_cast<std::size_t>(e) * n + k, local);
}

/// One rank's two passes per RK stage — the element kernel over its owned
/// elements, then the DSS exchange with its peers — driven by the shared
/// ssp_rk3_step over the rank-local layout, with the timing, trace spans
/// and traffic counts that feed dist_stats.
class rank_stepper {
 public:
  rank_stepper(const rank_exchange_plan& rp, halo_exchanger& halo)
      : rp_(rp), halo_(halo) {}

  const rank_exchange_plan& plan() const { return rp_; }

  /// One SSP-RK3 step of size `h` over the rank-local fields `q`.
  /// `kernel(src, dst, elems)` evaluates every owned element's tendency
  /// from its slot of `src` into its slot of `dst` (slot l holds element
  /// elems[l]); `project(fields)` runs before each DSS.
  template <std::size_t N, typename Kernel, typename Project>
  void step(const rk3_fields<N>& q, rk3_stages<N>& stages, double h,
            Kernel&& kernel, Project&& project) {
    ssp_rk3_step(
        q, stages, std::views::iota(std::size_t{0}, rp_.local_size()), h,
        [&](const rk3_fields<N>& src, const rk3_fields<N>& dst) {
          SFP_TRACE_SCOPE_CAT("seam.compute", "seam");
          clock_.reset();
          kernel(src, dst, std::span<const int>(rp_.owned));
          compute_s_ += clock_.seconds();
        },
        [&](const rk3_fields<N>& fields) {
          SFP_TRACE_SCOPE_CAT("seam.exchange", "seam");
          clock_.reset();
          project(fields);
          for (const std::span<double> f : fields) {
            const auto [msgs, sent] = halo_.dss_average(f);
            messages_ += msgs;
            doubles_sent_ += sent;
          }
          exchange_s_ += clock_.seconds();
        });
  }

  void report_to(stats_collector& collector) const {
    collector.add(compute_s_, exchange_s_, messages_, doubles_sent_);
  }

 private:
  const rank_exchange_plan& rp_;
  halo_exchanger& halo_;
  sfp::stopwatch clock_;
  double compute_s_ = 0, exchange_s_ = 0;
  std::int64_t messages_ = 0, doubles_sent_ = 0;
};

constexpr auto no_projection = [](const auto&) {};

/// The per-rank program of every distributed runner. Gathers the owned
/// slices of `init` into rank-local fields, runs steps [first, last) —
/// each `step(stepper, q, stages)` under a seam.step span, then
/// `after_step(step, q)` — scatters the final fields into `out`, and adds
/// the rank's totals to `collector`. `step` is taken by value, so each
/// rank owns what it captured by value (such as kernel scratch).
template <std::size_t N, typename Step, typename AfterStep>
void rank_body(const rank_exchange_plan& rp, halo_exchanger& halo,
               const std::vector<std::span<const double>>& init, int first,
               int last, Step step, AfterStep&& after_step, field_list& out,
               stats_collector& collector) {
  rank_stepper stepper(rp, halo);
  const std::size_t n_local = rp.local_size();
  field_list q(init.size());
  for (std::vector<double>& f : q) f.resize(n_local);
  for_each_owned_node(rp, [&](std::size_t node, std::size_t k) {
    for (std::size_t f = 0; f < q.size(); ++f) q[f][k] = init[f][node];
  });
  rk3_stages<N> stages(n_local);
  for (int s = first; s < last; ++s) {
    SFP_TRACE_SCOPE_CAT("seam.step", "seam");
    step(stepper, q, stages);
    after_step(s, q);
  }
  for_each_owned_node(rp, [&](std::size_t node, std::size_t k) {
    for (std::size_t f = 0; f < q.size(); ++f) out[f][node] = q[f][k];
  });
  stepper.report_to(collector);
}

/// The one SEAM driver behind every runner: `nsteps` steps of `step` from
/// the global fields `init`, on part.num_parts ranks of
/// runtime::run_resilient, with rank_body on every rank. Returns the final
/// global fields and fills `report` and `stats`, per-rank counters
/// included, when non-null — also when the ladder gave up, before the
/// root cause is rethrown.
///
/// With ropts.max_recoveries > 0 the run is resilient: it copies `init`,
/// checkpoints every step, and after a failed attempt rolls back to the
/// newest sealed checkpoint and re-slices `curve` (then non-null) around
/// each lost rank. With 0 it gathers straight from `init` and holds no
/// global buffer but the returned fields.
template <std::size_t N, typename Step>
field_list run_seam(const assembly& dofs, const partition::partition& part,
                    const std::vector<std::span<const double>>& init,
                    int nsteps, const Step& step,
                    const runtime::resilience_options& ropts,
                    const core::cube_curve* curve, recovery_report* report,
                    dist_stats* stats) {
  require_runnable(part, dofs.num_elements());
  const bool resilient = ropts.max_recoveries > 0;
  recovery_report rep;
  stats_collector collector;
  partition::partition cur = part;

  // The returned fields, which the ranks scatter their final slices into.
  // A resilient run also commits its state here — the fields after `done`
  // completed steps — so they start as a copy of `init`.
  field_list state;
  for (const std::span<const double> f : init) {
    if (resilient)
      state.emplace_back(f.begin(), f.end());
    else
      state.emplace_back(f.size(), 0.0);
  }
  int done = 0;

  // One attempt's setup. Each rank of an attempt plans its own halo over
  // `cur` in its rank body. A resilient attempt gathers from
  // `start`, its own copy of `state`, since the ranks write their final
  // slices into `state`. Its per-step checkpoints are double-buffered: a
  // buffer for step s is sealed by the end-of-step fence and can only be
  // overwritten at step s+2, which requires the step s+1 fence — so the
  // newest fully-fenced buffer is never torn, even with ranks one step
  // apart mid-abort. `sealed` counts the attempt's steps whose checkpoint
  // every rank wrote.
  field_list start;
  std::vector<std::span<const double>> from = init;
  std::array<field_list, 2> snap;
  int sealed = 0;
  std::mutex sealed_mutex;
  const auto begin_attempt = [&] {
    if (!resilient) return;
    start = state;
    from.assign(start.begin(), start.end());
    snap.fill(state);
    sealed = 0;
  };
  begin_attempt();

  const std::exception_ptr error = runtime::run_resilient(
      part.num_parts, ropts,
      [&](runtime::reliable_channel& channel, int) {
        const int rank = channel.rank();
        const rank_exchange_plan rp = [&] {
          SFP_TRACE_SCOPE_CAT("seam.rank_plan", "seam");
          return rank_exchange_plan::build(dofs, cur, rank);
        }();
        halo_exchanger halo(rp, rank, channel);
        const auto checkpoint_step = [&](int s, const field_list& q) {
          if (!resilient) return;
          field_list& buffer = snap[static_cast<std::size_t>((s - done) & 1)];
          for_each_owned_node(rp, [&](std::size_t node, std::size_t k) {
            for (std::size_t f = 0; f < q.size(); ++f)
              buffer[f][node] = q[f][k];
          });
          // Seal the checkpoint: once the fence returns, every rank has
          // written its slices of this step.
          channel.fence();
          std::lock_guard<std::mutex> lock(sealed_mutex);
          sealed = std::max(sealed, s - done + 1);
        };
        rank_body<N>(rp, halo, from, done, nsteps, step, checkpoint_step,
                     state, collector);
      },
      [&](const std::set<int>& lost) {
        // Roll back to the newest checkpoint every rank sealed, then
        // re-slice the curve around each lost rank, highest first so the
        // lower dense ranks keep their labels.
        if (sealed > 0)
          state = snap[static_cast<std::size_t>((sealed - 1) & 1)];
        done += sealed;
        rep.restart_step = done;
        for (auto it = lost.rbegin(); it != lost.rend(); ++it) {
          core::recovery_plan rplan = core::plan_recovery(*curve, cur, *it);
          if (rep.recoveries == 0 && it == lost.rbegin())
            rep.migration = rplan.migration;
          cur = std::move(rplan.part);
        }
        begin_attempt();
      },
      rep);

  if (!error) rep.final_partition = std::move(cur);
  if (stats) {
    *stats = collector.total;
    stats->per_rank = rep.per_rank_counters;
  }
  if (report) *report = std::move(rep);
  if (error) std::rethrow_exception(error);
  return state;
}

/// The plain runners' options: no faults, no restarts, and a channel with
/// no receive deadline and no retransmit budget. A plain run has no
/// recovery path, so giving up on a live but descheduled peer would only
/// turn a slow fault-free run into a failed one; a rank failure still ends
/// every wait by aborting the fabric.
runtime::resilience_options plain_run() {
  runtime::resilience_options opts;
  opts.reliable.recv_timeout = std::chrono::milliseconds(0);
  opts.reliable.max_retransmits = std::numeric_limits<int>::max();
  opts.max_recoveries = 0;
  return opts;
}

/// The advection model's per-rank step, shared by run_distributed and the
/// resilient runner.
auto advection_step(const advection_model& model, double dt) {
  return [&model, dt](rank_stepper& stepper, field_list& q,
                      rk3_stages<1>& stages) {
    stepper.step(
        rk3_fields<1>{q[0]}, stages, dt,
        [&](const rk3_fields<1>& src, const rk3_fields<1>& dst,
            std::span<const int> elems) {
          model.tendency_elements(src[0], dst[0], elems);
        },
        no_projection);
  };
}

}  // namespace

std::vector<double> run_distributed(const advection_model& model,
                                    const partition::partition& part,
                                    double dt, int nsteps, dist_stats* stats) {
  require_run_args(dt, nsteps);
  return std::move(run_seam<1>(model.dofs(), part, {model.field()}, nsteps,
                               advection_step(model, dt), plain_run(),
                               nullptr, nullptr, stats)
                       .front());
}

std::vector<double> run_distributed_resilient(
    const advection_model& model, const core::cube_curve& curve,
    const partition::partition& part, double dt, int nsteps,
    const runtime::resilience_options& ropts, recovery_report* report,
    dist_stats* stats) {
  require_run_args(dt, nsteps);
  SFP_REQUIRE(part.part_of.size() == curve.order.size(),
              "partition must cover the curve's mesh");
  return std::move(run_seam<1>(model.dofs(), part, {model.field()}, nsteps,
                               advection_step(model, dt), ropts, &curve,
                               report, stats)
                       .front());
}

swe_state run_distributed_swe(const shallow_water_model& model,
                              const partition::partition& part, double dt,
                              int nsteps, dist_stats* stats) {
  require_run_args(dt, nsteps);
  const auto swe_step = [&model, dt](rank_stepper& stepper, field_list& q,
                                     rk3_stages<4>& stages) {
    stepper.step(
        rk3_fields<4>{q[0], q[1], q[2], q[3]}, stages, dt,
        [&](const rk3_fields<4>& s, const rk3_fields<4>& r,
            std::span<const int> elems) {
          model.rhs_elements(s[0], s[1], s[2], s[3], r[0], r[1], r[2], r[3],
                             elems);
        },
        [&](const rk3_fields<4>& f) {
          for_each_owned_node(
              stepper.plan(), [&](std::size_t node, std::size_t k) {
                model.project_node(node, f[1][k], f[2][k], f[3][k]);
              });
        });
  };
  field_list out = run_seam<4>(
      model.dofs(), part,
      {model.depth(), model.velocity_x(), model.velocity_y(),
       model.velocity_z()},
      nsteps, swe_step, plain_run(), nullptr, nullptr, stats);
  return {std::move(out[0]), std::move(out[1]), std::move(out[2]),
          std::move(out[3])};
}

std::vector<std::vector<double>> run_distributed_layered(
    const layered_advection& model, const partition::partition& part,
    double dt, int nsteps, dist_stats* stats) {
  require_run_args(dt, nsteps);
  const advection_model& base = model.base();
  // Every layer is its own one-field system; omega_at scales the base
  // (omega = 1) velocity, so it scales the step.
  const auto layered_step = [&model, &base, dt](rank_stepper& stepper,
                                                field_list& q,
                                                rk3_stages<1>& stages) {
    for (int l = 0; l < model.nlev(); ++l)
      stepper.step(
          rk3_fields<1>{q[static_cast<std::size_t>(l)]}, stages,
          dt * model.omega_at(l),
          [&](const rk3_fields<1>& src, const rk3_fields<1>& dst,
              std::span<const int> elems) {
            base.tendency_elements(src[0], dst[0], elems);
          },
          no_projection);
  };
  std::vector<std::span<const double>> init;
  for (int l = 0; l < model.nlev(); ++l) init.push_back(model.layer(l));
  return run_seam<1>(base.dofs(), part, init, nsteps, layered_step,
                     plain_run(), nullptr, nullptr, stats);
}

}  // namespace sfp::seam
