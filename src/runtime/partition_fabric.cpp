#include "runtime/partition_fabric.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "core/escalation.hpp"
#include "obs/obs.hpp"
#include "util/contract.hpp"

namespace sfp::runtime {

namespace {

static_assert(sizeof(double) == sizeof(std::int64_t),
              "int64 records travel as double bit images");

/// int64 records -> double bit images. memcpy, never a value conversion:
/// arbitrary integer patterns (including ones that alias NaNs) must survive
/// the trip untouched, and the fabric only ever copies payloads.
std::vector<double> to_wire(std::span<const std::int64_t> words) {
  std::vector<double> out(words.size());
  if (!words.empty())
    std::memcpy(out.data(), words.data(), words.size() * sizeof(double));
  return out;
}

std::vector<std::int64_t> from_wire(std::span<const double> payload) {
  std::vector<std::int64_t> out(payload.size());
  if (!payload.empty())
    std::memcpy(out.data(), payload.data(),
                payload.size() * sizeof(std::int64_t));
  return out;
}

/// Everything one world rank leaves behind. Each rank writes only its own
/// slot and the driver reads them after the fabric join, so there is no
/// cross-thread sharing — in particular a killed rank's pre-death deposit
/// never races a survivor's re-execution deposit (each lives in its
/// writer's own slot, tagged with the group epoch it was computed under).
struct rank_outcome {
  bool deposited = false;  ///< `part` below is valid
  bool completed = false;  ///< passed the closing group barrier
  bool dead = false;       ///< rank_killed fired on this rank
  bool aborted = false;    ///< quorum lost, evicted, or recovery budget spent
  std::uint64_t epoch = 0;     ///< group epoch of the deposit
  int recoveries = 0;          ///< reconfigurations adopted
  core::local_partition part;  ///< the deposit: range, element ids, labels
  core::regroup_stats regroup;
  reliable_stats reliable;
};

/// Write one range's labels into the global plan at its element ids.
void scatter_labels(const core::local_partition& part,
                    partition::partition& plan) {
  SFP_ASSERT(part.elements.size() == part.labels.size(),
             "one element id per labelled position");
  for (std::size_t i = 0; i < part.elements.size(); ++i)
    plan.part_of[static_cast<std::size_t>(part.elements[i])] = part.labels[i];
}

/// Pump the channel until every send is acked, converting a delivery
/// failure into a group event: a real member triggers the agreement round
/// (notify_peer_lost unwinds via group_reconfigured / quorum_lost), an
/// already-evicted corpse is scrubbed and the flush retried.
void flush_or_regroup(reliable_channel& channel, core::regroup_comm& group) {
  for (;;) {
    try {
      channel.flush();
      return;
    } catch (const peer_unreachable_error& e) {
      group.notify_peer_lost(e.peer());
    }
  }
}

/// One deterministic re-execution attempt over the current surviving group:
/// recompute the range distribution for the shrunken rank count, rerun the
/// partition from scratch, deposit the result under the group epoch, and
/// close with the group barrier. Every input is a pure function of
/// (curve spec, weights, nparts, survivor count), so the assembled plan
/// stays bit-identical to the serial slicer whatever group finishes.
void run_partition_attempt(core::regroup_comm& group,
                           reliable_channel& channel,
                           const mesh::cubed_sphere& mesh,
                           const core::cube_curve_spec& spec, int nparts,
                           std::span<const graph::weight> weights,
                           core::parallel_partition_stats* stats,
                           rank_outcome* out) {
  SFP_TRACE_SCOPE_CAT("partition.attempt", "runtime");
  out->part =
      core::parallel_partition_rank(mesh, spec, nparts, weights, group, stats);
  out->deposited = true;
  out->epoch = group.view().epoch;
  // All data sends acked while every peer is provably still pumping, then
  // the group-wide barrier: once it returns, every member of this epoch
  // has deposited. A death inside either unwinds into a regroup.
  flush_or_regroup(channel, group);
  group.barrier();  // lint: blocking-ok — regroup barrier is bounded by the detection budget; silence past it unwinds into the agreement round, never a hang
  // Barrier tail: the only unacked traffic left is barrier releases whose
  // receivers may already have left (their acks are in flight) or died
  // after depositing; neither invalidates the deposits, so a late delivery
  // failure here is scrubbed rather than escalated.
  for (;;) {
    try {
      channel.flush();
      return;
    } catch (const peer_unreachable_error& e) {
      channel.forget_peer(e.peer());
    }
  }
}

void partition_rank_main(reliable_channel& channel, int world_rank,
                         int nranks, const mesh::cubed_sphere& mesh,
                         const core::cube_curve_spec& spec, int nparts,
                         std::span<const graph::weight> weights,
                         const parallel_partition_run_options& opts,
                         core::parallel_partition_stats* stats,
                         rank_outcome* out) {
  static obs::counter& recoveries_counter =
      obs::registry::global().get_counter("partition.recoveries");
  reliable_peer_comm base(channel, world_rank, nranks);
  core::regroup_comm group(base, opts.regroup);
  try {
    for (int attempt = 0;; ++attempt) {
      try {
        run_partition_attempt(group, channel, mesh, spec, nparts, weights,
                              stats, out);
        out->completed = true;
        break;
      } catch (const core::group_reconfigured& g) {
        SFP_TRACE_SCOPE_CAT("partition.regroup", "runtime");
        const core::escalation_decision d = core::decide_regroup(
            g.victim(), static_cast<int>(g.view().members.size()),
            opts.regroup.min_members, nranks, attempt, opts.max_recoveries);
        if (!d.recover) {
          out->aborted = true;
          break;
        }
        recoveries_counter.inc();
      }
    }
  } catch (const core::quorum_lost& q) {
    // Below quorum or evicted: this rank is out, but it dies cleanly —
    // deposits it already made under earlier epochs remain valid.
    out->aborted = true;
  } catch (const rank_killed&) {
    // Simulated process death: fall silent. Abandon outstanding sends so
    // teardown does not keep acking/retransmitting on the corpse's behalf,
    // and return normally — an escaping exception would abort the world.
    channel.abandon();
    out->dead = true;
  }
  out->recoveries = group.recoveries();
  out->regroup = group.stats();
  try {
    channel.publish_metrics();
  } catch (...) {  // metrics on a dying rank are best-effort
  }
  out->reliable = channel.stats();
}

}  // namespace

void reliable_peer_comm::send(int dst, std::span<const std::int64_t> words) {
  SFP_REQUIRE(dst >= 0 && dst < size_ && dst != rank_,
              "send destination must be another rank in the group");
  const std::vector<double> image = to_wire(words);
  channel_->send(dst, partition_tag, image);
}

std::vector<std::int64_t> reliable_peer_comm::recv(int src) {
  SFP_REQUIRE(src >= 0 && src < size_ && src != rank_,
              "recv source must be another rank in the group");
  try {
    const std::vector<double> payload = channel_->recv(src, partition_tag);  // lint: blocking-ok — reliable recv pumps the progress engine and fails over to peer_unreachable after recv_timeout
    return from_wire(payload);
  } catch (const peer_unreachable_error& e) {
    // Translate to the core-layer failure vocabulary: retransmit
    // exhaustion is delivery-level proof of death, a recv timeout only a
    // suspicion the regroup layer weighs against its patience budget.
    throw core::peer_lost(e.peer(), e.attempts() > 0);  // lint: runtime-throw-ok — failure-vocabulary translation at the core/runtime seam; the regroup layer catches it immediately above
  }
}

void reliable_peer_comm::forget_peer(int peer) { channel_->forget_peer(peer); }

parallel_partition_report run_parallel_partition(
    const mesh::cubed_sphere& mesh, const core::cube_curve_spec& spec,
    int nparts, std::span<const graph::weight> weights, int num_ranks,
    const parallel_partition_run_options& opts) {
  SFP_TRACE_SCOPE_CAT("runtime.parallel_partition", "runtime");
  SFP_REQUIRE(num_ranks >= 1, "need at least one rank");
  const auto k = static_cast<std::size_t>(mesh.num_elements());
  SFP_REQUIRE(weights.empty() || weights.size() == k,
              "weights must be empty or one per element");

  parallel_partition_report report;
  report.plan.num_parts = nparts;
  report.plan.part_of.assign(k, 0);
  report.rank_stats.assign(static_cast<std::size_t>(num_ranks), {});
  {
    static obs::counter& runs = obs::registry::global().get_counter(
        "runtime.parallel_partition.runs");
    runs.inc();
  }

  if (num_ranks == 1) {
    core::solo_comm solo;
    core::local_partition part = core::parallel_partition_rank(
        mesh, spec, nparts, weights, solo, &report.rank_stats[0]);
    scatter_labels(part, report.plan);
    report.boundaries = std::move(part.boundaries);
    return report;
  }

  std::vector<rank_outcome> outcomes(static_cast<std::size_t>(num_ranks));

  fabric_options fopts;
  fopts.backend = opts.backend;
  fopts.faults = opts.faults;
  fopts.stream_faults = opts.stream_faults;
  fabric_report frep;
  run_fabric(
      num_ranks, fopts,
      [&](transport& t) {
        const auto r = static_cast<std::size_t>(t.rank());
        reliable_channel channel(t, opts.reliable);
        partition_rank_main(channel, t.rank(), num_ranks, mesh, spec, nparts,
                            weights, opts, &report.rank_stats[r],
                            &outcomes[r]);
      },
      &frep);
  report.counters = frep.counters;
  report.socket = frep.socket;
  for (const rank_outcome& o : outcomes) {
    report.reliable += o.reliable;
    report.regroup += o.regroup;
  }

  // Assemble from the newest group epoch whose deposits exactly tile
  // [0, K). Survivors of the final group all deposited under it (the
  // closing barrier proves so); deposits from a rank that died after the
  // barrier began are equally valid — its labels were computed by the same
  // pure function before it fell silent.
  std::vector<const rank_outcome*> chosen;
  std::uint64_t chosen_epoch = 0;
  {
    std::vector<std::uint64_t> epochs;
    for (const rank_outcome& o : outcomes)
      if (o.deposited) epochs.push_back(o.epoch);
    std::sort(epochs.begin(), epochs.end(), std::greater<>());
    epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
    const auto k64 = static_cast<std::int64_t>(k);
    for (const std::uint64_t e : epochs) {
      std::vector<const rank_outcome*> slots;
      for (const rank_outcome& o : outcomes)
        if (o.deposited && o.epoch == e) slots.push_back(&o);
      std::sort(slots.begin(), slots.end(),
                [](const rank_outcome* a, const rank_outcome* b) {
                  return a->part.begin < b->part.begin;
                });
      std::int64_t pos = 0;
      bool tiles = true;
      for (const rank_outcome* s : slots) {
        if (s->part.begin != pos) {
          tiles = false;
          break;
        }
        pos = s->part.end;
      }
      if (tiles && pos == k64) {
        chosen = std::move(slots);
        chosen_epoch = e;
        break;
      }
    }
  }
  if (chosen.empty()) {
    report.aborted = true;
    for (int r = 0; r < num_ranks; ++r) report.lost_ranks.push_back(r);
    report.plan.part_of.clear();
    return report;
  }
  report.group_epoch = chosen_epoch;
  for (const rank_outcome* s : chosen) {
    SFP_ASSERT(s->part.labels.size() ==
                   static_cast<std::size_t>(s->part.end - s->part.begin),
               "deposit length must match its range");
    scatter_labels(s->part, report.plan);
    report.recoveries = std::max(report.recoveries, s->recoveries);
    if (s->part.begin == 0) report.boundaries = s->part.boundaries;
  }
  {
    std::vector<bool> in_group(static_cast<std::size_t>(num_ranks), false);
    for (std::size_t r = 0; r < outcomes.size(); ++r)
      if (outcomes[r].deposited && outcomes[r].epoch == chosen_epoch)
        in_group[r] = true;
    for (int r = 0; r < num_ranks; ++r)
      if (!in_group[static_cast<std::size_t>(r)])
        report.lost_ranks.push_back(r);
  }
  {
    static obs::counter& epoch_counter =
        obs::registry::global().get_counter("partition.group_epoch");
    epoch_counter.add(static_cast<std::int64_t>(report.group_epoch));
  }
  return report;
}

}  // namespace sfp::runtime
