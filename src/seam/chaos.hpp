#pragma once
// One chaos harness for the reliable distributed runners.
//
// A chaos_schedule is a *discrete* fault list — "the nth message from rank
// 1 to rank 3 is corrupted" — rather than per-message probabilities. Each
// fault lowers to a probability-1 runtime::fault_plan entry with a one-shot
// fire window, so a schedule is reproducible from its seed and, crucially,
// shrinkable: when a soak finds a failing schedule, ddmin-style delta
// debugging (shrink_failure) removes faults and kills while the failure
// persists, leaving a minimal reproducer that can be
// serialized as JSON and replayed. A schedule's JSON form is the one fault
// file format, and `sfcpart chaos` the one command that replays it.
//
// Two harnesses run schedules under one interface (chaos_target) and one
// kill contract: a fired kill costs a restart and loses exactly its rank,
// and a run aborts only when its kills can exhaust the restart budget.
// The advection harness checks SEAM advection against the fault-free run
// to 1e-12, and the partition harness checks serial parity of the
// distributed SFC partitioner. run_chaos_soak and shrink_failure serve
// both alike.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/cube_curve.hpp"
#include "io/json.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/partition.hpp"
#include "runtime/fault.hpp"
#include "runtime/partition_fabric.hpp"
#include "runtime/reliable.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"

namespace sfp::seam {

/// One discrete injected fault: hit the `nth` wire message (0-based, in the
/// sender's own order, acks and retransmits included) from `src` to `dst`.
struct chaos_fault {
  enum class kind : int { drop = 0, duplicate, corrupt, truncate, reorder };
  kind what = kind::drop;
  int src = 0, dst = 0;
  std::int64_t nth = 0;
};

const char* to_string(chaos_fault::kind k);

/// One simulated process death: world rank `rank` throws rank_killed at its
/// `at_op`-th communication op (counted from 1; on the partition fabric
/// every op is a transport send, acks and retransmits included). Ack
/// interleaving is timing-dependent, so the exact message the
/// kill lands after may shift between runs — which is fine, because unlike
/// a message fault a kill is not checked against a pinned delivery outcome:
/// *every* landing point must satisfy the same contract (the fault-free
/// result on the survivors, or a clean abort). A kill whose `at_op` lies
/// past the rank's last op never fires (and shrinks away), exactly like an
/// over-indexed message fault.
struct chaos_kill {
  int rank = 0;
  std::int64_t at_op = 1;
};

/// A seeded discrete schedule. `seed` drives only positional randomness
/// (which bit a corruption flips, where a truncation cuts); the fault list
/// pins which messages are hit and which ranks die.
struct chaos_schedule {
  std::uint64_t seed = 0;
  std::vector<chaos_fault> faults;
  std::vector<chaos_kill> kills;
};

/// Randomized schedule: `nfaults` faults with kinds, (src, dst) pairs and
/// message indices in [0, max_nth) drawn from `seed`. Pure function of its
/// arguments. The default max_nth covers the 3 * nsteps data messages a
/// default-sized trial sends per (src, dst) pair; a fault indexed past the
/// last real message simply never fires (and shrinks away).
chaos_schedule make_chaos_schedule(std::uint64_t seed, int nranks,
                                   int nfaults, std::int64_t max_nth = 9);

/// Append `nkills` seeded rank-kill faults (ranks in [0, nranks), op
/// indices in [1, max_op]) to the schedule. Pure function of the
/// schedule's seed and its arguments, drawn from an rng stream
/// decorrelated from the shape and positional rngs. Repeated
/// ranks are allowed — a second kill of an already-dead rank never fires.
void add_kills(chaos_schedule& schedule, int nranks, int nkills,
               std::int64_t max_op = 12);

/// Lower to the runtime's declarative plan: one probability-1 entry per
/// fault, scoped by (src, dst) with a [nth, nth+1) fire window and a
/// min_payload filter that restricts matching to reliable data frames —
/// header-only ack/fence frames interleave with timing, so counting them
/// would make `nth` name a different message on every run. Kills lower
/// one-to-one.
runtime::fault_plan to_fault_plan(const chaos_schedule& schedule);

/// Reliable-channel tuning for chaos trials: a retransmit timeout well
/// above scheduler noise, so the only retransmits are the ones the
/// schedule causes and match indices stay stable run to run.
runtime::reliable_options chaos_reliable_defaults();

/// JSON form: {"seed": "7", "faults": [{"kind", "src", "dst", "nth"}...],
/// "kills": [{"rank", "at_op"}...]}; every key is optional. The loader
/// throws sfp::contract_error on any other key, at the top level or in an
/// entry.
io::json_value chaos_schedule_to_json(const chaos_schedule& schedule);
chaos_schedule chaos_schedule_from_json(const io::json_value& doc);

/// Restart budget of every chaos trial, on either harness.
inline constexpr int chaos_max_recoveries = 3;

/// The advection harness's pass bound: max |chaos - baseline| over the
/// final tracer field.
inline constexpr double chaos_tolerance = 1e-12;

/// Outcome of one schedule on either harness: the resilient run's
/// accounting plus the verdict. Each harness fills the fields its system
/// reports and leaves the others at their zero value; the restart step,
/// migration and final partition are the advection harness's.
struct chaos_trial : recovery_report {
  bool passed = false;
  std::string failure;       ///< empty when passed; mismatch or exception
  double max_abs_diff = 0;   ///< vs the fault-free advection baseline
  bool aborted = false;      ///< the run gave up (budget or no survivor)
};

/// The contract the shrinker, the soak and `sfcpart chaos` rely on: a
/// harness owns its problem and baseline, and every trial is const and
/// independently repeatable.
class chaos_target {
 public:
  chaos_target() = default;
  virtual ~chaos_target() = default;
  chaos_target(const chaos_target&) = delete;
  chaos_target& operator=(const chaos_target&) = delete;
  chaos_target(chaos_target&&) = delete;
  chaos_target& operator=(chaos_target&&) = delete;

  virtual chaos_trial run(const chaos_schedule& schedule) const = 0;
  /// Ranks the schedules' faults and kills are drawn over.
  virtual int nranks() const = 0;
  /// A soak schedule's message faults: `nfaults` faults drawn from `seed`
  /// onto the links and frame indices the harness's runs send.
  virtual chaos_schedule make_schedule(std::uint64_t seed,
                                       int nfaults) const = 0;
};

/// Problem + channel configuration for the advection harness.
struct chaos_options {
  int ne = 2;       ///< cubed-sphere elements per edge
  int np = 4;       ///< GLL points per element edge
  int nranks = 4;   ///< virtual ranks
  int nsteps = 3;   ///< RK3 steps per trial; dt = model.cfl_dt(0.3)
  /// Channel tuning, incl. the verify_checksums test hook.
  runtime::reliable_options reliable = chaos_reliable_defaults();
};

/// Advection harness: runs seam::run_distributed_resilient. Message faults
/// must heal in place; a rank kill re-slices the curve around the dead
/// rank. Pass/fail: the kill contract (partition_chaos_harness), and a
/// completed run's final tracer field within chaos_tolerance of the
/// fault-free baseline.
class chaos_harness final : public chaos_target {
 public:
  explicit chaos_harness(const chaos_options& opts = {});

  chaos_trial run(const chaos_schedule& schedule) const override;
  int nranks() const override { return opts_.nranks; }
  /// make_chaos_schedule with frame indices below 3 * nsteps (one data
  /// frame per RK stage on each halo link), and every fault on a rank pair
  /// without a halo link moved onto one that has it.
  chaos_schedule make_schedule(std::uint64_t seed,
                               int nfaults) const override;
  const chaos_options& options() const { return opts_; }

 private:
  chaos_options opts_;
  mesh::cubed_sphere mesh_;
  advection_model model_;
  core::cube_curve curve_;
  partition::partition part_;
  double dt_ = 0;
  std::vector<double> baseline_;
  /// (src, dst) of every halo link of the fault-free run, ascending.
  std::vector<std::pair<int, int>> links_;
};

/// Problem + channel configuration for the partition harness.
struct partition_chaos_options {
  int ne = 3;       ///< cubed-sphere elements per edge (K = 6 ne^2)
  int nparts = 5;   ///< parts in the plan (decoupled from nranks on purpose)
  int nranks = 4;   ///< virtual ranks
  runtime::reliable_options reliable = chaos_reliable_defaults();
};

/// Partition harness: the same schedules pointed at the distributed SFC
/// partitioner (runtime::run_parallel_partition). Message faults, drawn
/// onto the frames an attempt sends, must heal in place; rank kills
/// exercise the restart ladder. The kill contract, shared with the
/// advection harness:
///   completed -> a fired kill implies at least one recovery, and
///                lost_ranks is exactly the set of ranks whose kill fired
///                (so a message fault that escalated to a restart fails);
///   aborted   -> acceptable only when the schedule could actually have
///                starved the run: more distinct killable ranks than
///                chaos_max_recoveries, or every rank killable.
/// A completed run's plan and boundaries must then match the serial slicer
/// element for element.
class partition_chaos_harness final : public chaos_target {
 public:
  explicit partition_chaos_harness(const partition_chaos_options& opts = {});

  chaos_trial run(const chaos_schedule& schedule) const override;
  int nranks() const override { return opts_.nranks; }
  chaos_schedule make_schedule(std::uint64_t seed,
                               int nfaults) const override;
  const partition_chaos_options& options() const { return opts_; }

 private:
  partition_chaos_options opts_;
  mesh::cubed_sphere mesh_;
  core::cube_curve curve_;
  core::cube_curve_spec spec_;
  partition::partition serial_;  ///< the baseline plan every trial must hit
};

/// Delta-debug a failing schedule (ddmin over its combined fault + kill
/// list) down to a 1-minimal reproducer: `fails` still holds
/// for the result, and removing any single remaining entry makes it false.
/// Pure function of its arguments; returns `failing` unchanged when
/// `fails(failing)` does not hold (an unreproducible failure).
chaos_schedule shrink_failure(
    const chaos_schedule& failing,
    const std::function<bool(const chaos_schedule&)>& fails);

/// One soak failure: the full schedule, its shrunk reproducer, and the
/// failing trial's diagnosis.
struct soak_failure {
  chaos_schedule schedule;
  chaos_schedule shrunk;
  chaos_trial trial;
};

io::json_value soak_failure_to_json(const soak_failure& f);

struct soak_report {
  int trials = 0;
  int recovered_trials = 0;  ///< trials that absorbed >= 1 restart
  int aborted_trials = 0;    ///< trials that (acceptably) gave up
  std::vector<soak_failure> failures;
  runtime::reliable_stats reliable;  ///< totals over every trial
};

/// Run `trials` schedules seeded base_seed, base_seed+1, ..., each with
/// `nfaults` message faults drawn by the harness's make_schedule and
/// `nkills` rank kills; shrink each failure against the harness when `shrink` is set
/// (soaks that expect failures may skip it to bound wall-clock).
soak_report run_chaos_soak(const chaos_target& harness,
                           std::uint64_t base_seed, int trials, int nfaults,
                           int nkills = 0, bool shrink = true);

}  // namespace sfp::seam
