#pragma once
// Distributed execution of the advection mini-app over the virtual-rank
// runtime: each rank computes its partition's elements and exchanges element
// boundary contributions with neighbouring ranks at every RK stage — the
// same halo-exchange pattern that determines SEAM's parallel performance on
// the paper's cluster. Every runner is one driver on
// runtime::run_resilient, the attempt loop it shares with the distributed
// partitioner: each rank program speaks the runtime::reliable_channel that
// loop hands it. A plain runner is a run with no faults and no recovery
// budget; only run_distributed_resilient takes faults and restarts.
//
// A rank holds only its own elements: its fields and RK stages are in the
// rank-local layout of its exchange plan (seam/exchange.hpp — owned slot l
// holds element owned[l]'s np² nodes), O(K/P) doubles each. The global
// layout is where a run meets its caller: each rank gathers its owned
// slices of the initial fields at the start and scatters its final slices
// into the returned fields at the end, and a resilient run's checkpoints
// scatter into shared snapshot buffers. A plain run holds no global buffer
// but the fields it returns.

#include <cstdint>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/rebalance.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/partition.hpp"
#include "runtime/fabric.hpp"
#include "seam/advection.hpp"
#include "seam/layered.hpp"
#include "seam/shallow_water.hpp"

namespace sfp::seam {

/// Aggregate runtime statistics, summed over ranks.
struct dist_stats {
  double compute_seconds = 0;   ///< element kernel time
  double exchange_seconds = 0;  ///< boundary exchange (pack/send/recv/unpack)
  std::int64_t messages = 0;    ///< point-to-point messages sent
  std::int64_t doubles_sent = 0;  ///< total payload volume
  double max_rank_seconds = 0;  ///< slowest rank's total time
  /// Per-rank fabric counters, indexed by world rank and summed over a
  /// resilient run's attempts (resilience_report::per_rank_counters). Every
  /// runner fills them; the trace tooling joins them with the span
  /// timeline.
  std::vector<runtime::rank_counters> per_rank;
};

/// Run `nsteps` of SSP-RK3 advection for `model`, distributed across
/// `part.num_parts` virtual ranks. The model's current field is the initial
/// condition; the returned vector is the final global field in the model's
/// layout (the model itself is left untouched). Fills `stats` if non-null.
///
/// Requires part.num_parts >= 1 and one label per mesh element; every part
/// must own at least one element. The run is fault-free with no recovery
/// budget, and the rank channels never give up on a live peer: no receive
/// deadline and no retransmit budget, so only a rank failure (which aborts
/// the run) ends a wait.
std::vector<double> run_distributed(const advection_model& model,
                                    const partition::partition& part,
                                    double dt, int nsteps,
                                    dist_stats* stats = nullptr);

/// What happened across the attempts of a resilient run: the shared
/// accounting (recoveries, lost_ranks in pre-failure rank numbering, fabric
/// and channel totals), plus what the rollbacks and re-slices did.
struct recovery_report : runtime::resilience_report {
  int restart_step = 0;  ///< checkpoint step the last restart resumed from
  core::migration_stats migration;  ///< cost of the first re-slice
  partition::partition final_partition;
};

/// run_distributed under `ropts`: its faults, its channel tuning and its
/// recovery budget (runtime::run_resilient documents faults across
/// attempts and the lost-rank rule). With max_recoveries > 0 every
/// completed step is checkpointed (each rank scatters its owned slices into
/// a shared global-layout double buffer, sealed by the channel's fence).
/// When ranks are lost, the survivors roll back to the newest sealed
/// checkpoint and re-slice the same cube curve with plan_recovery once per
/// lost rank — only the lost segments' elements migrate — reproducing the
/// fault-free tracer field. With max_recoveries = 0 there are no
/// checkpoints and the first failure surfaces. When the ladder refuses,
/// the root-cause exception is rethrown. Requires `part` to label the
/// elements of `curve`'s mesh.
std::vector<double> run_distributed_resilient(
    const advection_model& model, const core::cube_curve& curve,
    const partition::partition& part, double dt, int nsteps,
    const runtime::resilience_options& ropts = {},
    recovery_report* report = nullptr, dist_stats* stats = nullptr);

/// Final state of a distributed shallow-water run (global field layout).
struct swe_state {
  std::vector<double> h, ux, uy, uz;
};

/// As run_distributed, for the shallow-water model: four prognostic fields,
/// tangent projection + DSS exchange after every RK stage. The model's
/// current state is the initial condition; the model itself is untouched.
swe_state run_distributed_swe(const shallow_water_model& model,
                              const partition::partition& part, double dt,
                              int nsteps, dist_stats* stats = nullptr);

/// As run_distributed, for the layered model: every vertical layer advances
/// independently on each rank, with one boundary exchange per layer per RK
/// stage — wire volume scales with nlev exactly as the performance model's
/// workload.nlev knob assumes. Returns all layers' final fields.
std::vector<std::vector<double>> run_distributed_layered(
    const layered_advection& model, const partition::partition& part,
    double dt, int nsteps, dist_stats* stats = nullptr);

}  // namespace sfp::seam
