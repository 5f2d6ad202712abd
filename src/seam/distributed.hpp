#pragma once
// Distributed execution of the advection mini-app over the virtual-rank
// runtime: each rank computes its partition's elements and exchanges element
// boundary contributions with neighbouring ranks at every RK stage — the
// same halo-exchange pattern that determines SEAM's parallel performance on
// the paper's cluster. Every runner's rank program speaks a
// runtime::reliable_channel over the transport runtime::run_fabric hands it.

#include <cstdint>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/rebalance.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/partition.hpp"
#include "runtime/reliable.hpp"
#include "runtime/socket_transport.hpp"
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
  /// Per-rank fabric counters (indexed by rank). Filled by the plain
  /// runners (run_distributed, run_distributed_swe,
  /// run_distributed_layered), not by run_distributed_resilient; the trace
  /// tooling joins these with the span timeline.
  std::vector<runtime::rank_counters> per_rank;
};

/// Run `nsteps` of SSP-RK3 advection for `model`, distributed across
/// `part.num_parts` virtual ranks. The model's current field is the initial
/// condition; the returned vector is the final global field in the model's
/// layout (the model itself is left untouched). Fills `stats` if non-null.
///
/// Requires part.num_parts >= 1 and one label per mesh element; every part
/// must own at least one element. `fopts` configures the fabric (wire and
/// fault injection) — the default is a fault-free in-process run. The rank channels never
/// give up on a live peer: no receive deadline and no retransmit budget, so
/// only a rank failure (which aborts the run) ends a wait.
std::vector<double> run_distributed(const advection_model& model,
                                    const partition::partition& part,
                                    double dt, int nsteps,
                                    dist_stats* stats = nullptr,
                                    const runtime::fabric_options& fopts = {});

/// Knobs for the fault-tolerant runner.
struct resilience_options {
  /// Injected into the first attempt only; recovery attempts run clean.
  runtime::fault_plan faults;
  /// Rank failures survived before giving up and rethrowing.
  int max_recoveries = 1;
  /// Tuning for the reliable channel that carries the halo traffic:
  /// transient drop/corrupt/duplicate/reorder faults heal in place with
  /// zero aborts, and only genuine rank death (or retransmit exhaustion /
  /// a receive deadline) climbs to the plan_recovery re-slice. The epoch
  /// field is overwritten with the attempt number.
  runtime::reliable_options reliable;
  /// Which fabric carries the halo traffic; both run the identical rank
  /// program.
  runtime::transport_backend backend = runtime::transport_backend::inproc;
  /// Byte-stream chaos for the socket backend, injected underneath the
  /// message-level `faults` on the first attempt only. Ignored by the
  /// in-process backend, which has no byte stream to mangle.
  runtime::stream_fault_plan stream_faults;
};

/// What happened across attempts of a resilient run.
struct recovery_report {
  int attempts = 1;              ///< 1 = no fault occurred
  int failed_rank = -1;          ///< first failed rank (pre-failure numbering)
  int restart_step = 0;          ///< checkpoint step the recovery resumed from
  core::migration_stats migration;  ///< cost of the first recovery re-slice
  std::vector<graph::vid> survivor_of;  ///< new rank -> pre-failure rank
  partition::partition final_partition;
  runtime::rank_counters counters;  ///< totals over all attempts
  /// Reliable-channel totals over all ranks and attempts.
  runtime::reliable_stats reliable;
  /// Socket-layer totals over all attempts (all zero on the in-process
  /// backend).
  runtime::socket_stats socket;
};

/// Fault-tolerant variant of run_distributed. Every completed step is
/// checkpointed (owned slices into a shared double buffer, sealed by the
/// channel's fence). If a rank fails, survivors re-slice the same cube curve over
/// nparts-1 segments with plan_recovery — only the failed segment's
/// elements migrate — and the run resumes from the last complete
/// checkpoint, reproducing the fault-free tracer field. Requires `part` to
/// label the elements of `curve`'s mesh.
std::vector<double> run_distributed_resilient(
    const advection_model& model, const core::cube_curve& curve,
    const partition::partition& part, double dt, int nsteps,
    const resilience_options& ropts = {}, recovery_report* report = nullptr,
    dist_stats* stats = nullptr);

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
