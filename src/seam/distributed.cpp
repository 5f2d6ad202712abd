#include "seam/distributed.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/escalation.hpp"
#include "obs/trace.hpp"
#include "runtime/fabric.hpp"
#include "runtime/reliable.hpp"
#include "seam/exchange.hpp"
#include "seam/rk3.hpp"
#include "util/require.hpp"
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

/// Rank-local copies of a run's prognostic fields, in the global field
/// layout; only a rank's owned slice is meaningful.
using field_list = std::vector<std::vector<double>>;

/// One rank's two passes per RK stage — the element kernel over its owned
/// elements, then the DSS exchange with its peers — driven by the shared
/// ssp_rk3_step, with the timing, trace spans and traffic counts that feed
/// dist_stats.
class rank_stepper {
 public:
  rank_stepper(const rank_exchange_plan& rp, halo_exchanger& halo)
      : rp_(rp), halo_(halo) {}

  const std::vector<std::size_t>& owned_nodes() const {
    return rp_.owned_nodes;
  }

  /// One SSP-RK3 step of size `h` over the owned nodes of `q`.
  /// `kernel(src, dst, elem)` evaluates one owned element's tendency;
  /// `project(fields)` runs on the owned nodes before each DSS.
  template <std::size_t N, typename Kernel, typename Project>
  void step(const rk3_fields<N>& q, rk3_stages<N>& stages, double h,
            Kernel&& kernel, Project&& project) {
    ssp_rk3_step(
        q, stages, rp_.owned_nodes, h,
        [&](const rk3_fields<N>& src, const rk3_fields<N>& dst) {
          SFP_TRACE_SCOPE_CAT("seam.compute", "seam");
          clock_.reset();
          for (const int e : rp_.owned) kernel(src, dst, e);
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

/// The per-rank program of every distributed runner. Copies `init` into
/// rank-local fields, runs steps [first, last) — each `step(stepper, q,
/// stages)` under a seam.step span, then `after_step(step, q)` — writes the
/// owned slices into `out`, and adds the rank's totals to `collector`.
/// `step` is taken by value, so each rank owns what it captured by value
/// (such as kernel scratch).
template <std::size_t N, typename Step, typename AfterStep>
void rank_body(const rank_exchange_plan& rp, halo_exchanger& halo,
               const std::vector<std::span<const double>>& init, int first,
               int last, Step step, AfterStep&& after_step, field_list& out,
               stats_collector& collector) {
  rank_stepper stepper(rp, halo);
  field_list q;
  for (const std::span<const double> f : init)
    q.emplace_back(f.begin(), f.end());
  rk3_stages<N> stages(q.front().size());
  for (int s = first; s < last; ++s) {
    SFP_TRACE_SCOPE_CAT("seam.step", "seam");
    step(stepper, q, stages);
    after_step(s, q);
  }
  for (std::size_t f = 0; f < q.size(); ++f)
    for (const std::size_t n : rp.owned_nodes) out[f][n] = q[f][n];
  stepper.report_to(collector);
}

/// The plain runners' channel: no receive deadline and no retransmit
/// budget. A plain run has no recovery path, so giving up on a live but
/// descheduled peer would only turn a slow fault-free run into a failed
/// one; a rank failure still ends every wait by aborting the fabric.
runtime::reliable_options patient_channel() {
  runtime::reliable_options opts;
  opts.recv_timeout = std::chrono::milliseconds(0);
  opts.max_retransmits = std::numeric_limits<int>::max();
  return opts;
}

/// The plain runners: one exchange plan, one fabric,
/// rank_body for `nsteps` steps on every rank. Returns the final fields and
/// fills `stats`, per-rank counters included, if non-null.
template <std::size_t N, typename Step>
field_list run_plain(const assembly& dofs, const partition::partition& part,
                     const std::vector<std::span<const double>>& init,
                     int nsteps, dist_stats* stats,
                     const runtime::fabric_options& fopts, const Step& step) {
  const exchange_plan plan = exchange_plan::build(dofs, part);
  field_list out(init.size(), std::vector<double>(init.front().size(), 0.0));
  stats_collector collector;
  runtime::fabric_report frep;
  runtime::run_fabric(
      part.num_parts, fopts,
      [&](runtime::transport& t) {
        const rank_exchange_plan& rp =
            plan.ranks[static_cast<std::size_t>(t.rank())];
        runtime::reliable_channel channel(t, patient_channel());
        halo_exchanger halo(rp, t.rank(), channel);
        rank_body<N>(rp, halo, init, 0, nsteps, step,
                     [](int, field_list&) {}, out, collector);
      },
      &frep);
  if (stats) {
    *stats = collector.total;
    stats->per_rank = std::move(frep.per_rank);
  }
  return out;
}

/// The advection model's per-rank step, shared by run_distributed and the
/// resilient runner.
auto advection_step(const advection_model& model, double dt) {
  return [&model, dt](rank_stepper& stepper, field_list& q,
                      rk3_stages<1>& stages) {
    stepper.step(
        rk3_fields<1>{q[0]}, stages, dt,
        [&](const rk3_fields<1>& src, const rk3_fields<1>& dst, int e) {
          model.tendency_element(src[0], dst[0], e);
        },
        no_projection);
  };
}

}  // namespace

std::vector<double> run_distributed(const advection_model& model,
                                    const partition::partition& part,
                                    double dt, int nsteps, dist_stats* stats,
                                    const runtime::fabric_options& fopts) {
  require_run_args(dt, nsteps);
  return std::move(run_plain<1>(model.dofs(), part, {model.field()}, nsteps,
                                stats, fopts, advection_step(model, dt))
                       .front());
}

std::vector<double> run_distributed_resilient(
    const advection_model& model, const core::cube_curve& curve,
    const partition::partition& part, double dt, int nsteps,
    const resilience_options& ropts, recovery_report* report,
    dist_stats* stats) {
  require_run_args(dt, nsteps);
  SFP_REQUIRE(part.part_of.size() == curve.order.size(),
              "partition must cover the curve's mesh");
  SFP_REQUIRE(ropts.max_recoveries >= 0, "max_recoveries must be >= 0");

  recovery_report rep;
  stats_collector collector;

  // Committed global state: the tracer field after `done` completed steps.
  field_list state(
      1, std::vector<double>(model.field().begin(), model.field().end()));
  partition::partition cur = part;
  int done = 0;

  for (int attempt = 0; done < nsteps; ++attempt) {
    const exchange_plan plan = exchange_plan::build(model.dofs(), cur);
    const int nranks = cur.num_parts;
    rep.attempts = attempt + 1;

    // Per-step checkpoints, double-buffered. A buffer for step s is sealed
    // by the end-of-step fence and can only be overwritten at step s+2,
    // which requires the step s+1 fence — so the newest fully-fenced
    // buffer is never torn, even with ranks one step apart mid-abort.
    field_list snap(2, state.front());
    std::mutex progress_mutex;
    std::vector<int> progress(static_cast<std::size_t>(nranks), 0);
    std::mutex reliable_mutex;

    runtime::fabric_options fopts;
    fopts.backend = ropts.backend;
    if (attempt == 0) {
      fopts.faults = ropts.faults;
      fopts.stream_faults = ropts.stream_faults;
    }
    runtime::reliable_options reliable_opts = ropts.reliable;
    reliable_opts.epoch = static_cast<std::uint64_t>(attempt);
    const std::vector<std::span<const double>> init{state.front()};
    runtime::fabric_report frep;
    // Identical fabric-failure handling on every backend: a rank death or
    // an unreachable peer feeds the escalation ladder. Anything else
    // (model assertions, contract violations) propagates.
    const runtime::rank_failure failure = runtime::run_fabric_attempt(
        nranks, fopts,
        [&](runtime::transport& t) {
          const int rank = t.rank();
          const rank_exchange_plan& rp =
              plan.ranks[static_cast<std::size_t>(rank)];
          runtime::reliable_channel channel(t, reliable_opts);
          halo_exchanger halo(rp, rank, channel);
          const auto checkpoint_step = [&](int step, const field_list& q) {
            auto& checkpoint =
                snap[static_cast<std::size_t>((step - done) & 1)];
            for (const std::size_t n : rp.owned_nodes)
              checkpoint[n] = q[0][n];
            // Seal the checkpoint: once the fence returns, every rank has
            // written its slice of this step.
            channel.fence();
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress[static_cast<std::size_t>(rank)] = step - done + 1;
          };
          rank_body<1>(rp, halo, init, done, nsteps,
                       advection_step(model, dt), checkpoint_step, state,
                       collector);
          std::lock_guard<std::mutex> lock(reliable_mutex);
          rep.reliable += channel.stats();
        },
        &frep);
    rep.counters += frep.counters;
    rep.socket += frep.socket;

    if (failure.error) {
      const core::escalation_decision decision = core::decide_escalation(
          failure.kind, failure.thrower, failure.peer, attempt,
          ropts.max_recoveries, nranks);
      if (!decision.recover) std::rethrow_exception(failure.error);

      // Roll back to the newest checkpoint every rank sealed, then re-slice
      // the curve over the survivors and go again.
      int completed = 0;
      for (const int p : progress) completed = std::max(completed, p);
      if (completed > 0)
        state.front() = snap[static_cast<std::size_t>((completed - 1) & 1)];
      done += completed;
      core::recovery_plan rplan =
          core::plan_recovery(curve, cur, decision.victim);
      if (rep.failed_rank < 0) {
        rep.failed_rank = decision.victim;
        rep.restart_step = done;
        rep.migration = rplan.migration;
        rep.survivor_of = std::move(rplan.survivor_of);
      }
      cur = std::move(rplan.part);
      continue;
    }
    done = nsteps;
  }

  rep.final_partition = std::move(cur);
  if (report) *report = std::move(rep);
  if (stats) *stats = collector.total;
  return std::move(state.front());
}

swe_state run_distributed_swe(const shallow_water_model& model,
                              const partition::partition& part, double dt,
                              int nsteps, dist_stats* stats) {
  require_run_args(dt, nsteps);
  const auto swe_step = [&model, dt, scratch = model.make_scratch()](
                            rank_stepper& stepper, field_list& q,
                            rk3_stages<4>& stages) mutable {
    stepper.step(
        rk3_fields<4>{q[0], q[1], q[2], q[3]}, stages, dt,
        [&](const rk3_fields<4>& s, const rk3_fields<4>& r, int e) {
          model.rhs_element(s[0], s[1], s[2], s[3], r[0], r[1], r[2], r[3], e,
                            scratch);
        },
        [&](const rk3_fields<4>& f) {
          for (const std::size_t n : stepper.owned_nodes())
            model.project_node(n, f[1], f[2], f[3]);
        });
  };
  field_list out = run_plain<4>(
      model.dofs(), part,
      {model.depth(), model.velocity_x(), model.velocity_y(),
       model.velocity_z()},
      nsteps, stats, {}, swe_step);
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
          [&](const rk3_fields<1>& src, const rk3_fields<1>& dst, int e) {
            base.tendency_element(src[0], dst[0], e);
          },
          no_projection);
  };
  std::vector<std::span<const double>> init;
  for (int l = 0; l < model.nlev(); ++l) init.push_back(model.layer(l));
  return run_plain<1>(base.dofs(), part, init, nsteps, stats, {},
                      layered_step);
}

}  // namespace sfp::seam
