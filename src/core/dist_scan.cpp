#include "core/dist_scan.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/contract.hpp"

namespace sfp::core {

peer_comm::~peer_comm() = default;

void solo_comm::send(int dst, std::span<const std::int64_t> words) {
  (void)words;
  SFP_REQUIRE(false, "solo_comm has no peers to send to");
  (void)dst;
}

std::vector<std::int64_t> solo_comm::recv(int src) {
  SFP_REQUIRE(false, "solo_comm has no peers to receive from");
  (void)src;
  return {};
}

namespace {

/// Rank-ordered gather to rank 0, elementwise sum there, broadcast back.
/// Every rank leaves with the identical sum vector in `inout`. The flat
/// fan-in/fan-out is O(P) messages of `inout.size()` words — the group
/// sizes this library runs (virtual ranks on one node) never make the
/// log-tree variant worth its extra schedule complexity.
void reduce_bcast(peer_comm& comm, std::span<std::int64_t> inout) {
  const int p = comm.size();
  if (p == 1) return;
  if (comm.rank() == 0) {
    for (int src = 1; src < p; ++src) {
      const std::vector<std::int64_t> part = comm.recv(src);  // lint: blocking-ok — peer_comm::recv is bounded by the implementation's detection budget (peer_lost / regroup), never an unbounded wait
      SFP_REQUIRE(part.size() == inout.size(),
                  "allreduce contributions must have equal length");
      for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += part[i];
    }
    for (int dst = 1; dst < p; ++dst) comm.send(dst, inout);
  } else {
    comm.send(0, inout);
    const std::vector<std::int64_t> total = comm.recv(0);  // lint: blocking-ok — peer_comm::recv is bounded by the implementation's detection budget (peer_lost / regroup), never an unbounded wait
    SFP_ASSERT(total.size() == inout.size(),
               "allreduce result length mismatch");
    for (std::size_t i = 0; i < inout.size(); ++i) inout[i] = total[i];
  }
}

}  // namespace

std::int64_t allreduce_sum(peer_comm& comm, std::int64_t value) {
  std::int64_t slot[1] = {value};
  reduce_bcast(comm, slot);
  return slot[0];
}

void allreduce_sum(peer_comm& comm, std::span<std::int64_t> inout) {
  reduce_bcast(comm, inout);
}

std::int64_t exscan_sum(peer_comm& comm, std::int64_t value) {
  const int p = comm.size();
  if (p == 1) return 0;
  // Gather per-rank values at rank 0, prefix-sum there, send each rank its
  // exclusive offset. One word each way per rank.
  if (comm.rank() == 0) {
    std::int64_t running = value;
    std::vector<std::int64_t> offsets(static_cast<std::size_t>(p), 0);
    for (int src = 1; src < p; ++src) {
      const std::vector<std::int64_t> part = comm.recv(src);  // lint: blocking-ok — peer_comm::recv is bounded by the implementation's detection budget (peer_lost / regroup), never an unbounded wait
      SFP_REQUIRE(part.size() == 1, "exscan contribution must be one word");
      offsets[static_cast<std::size_t>(src)] = running;
      running += part[0];
    }
    for (int dst = 1; dst < p; ++dst) {
      const std::int64_t one[1] = {offsets[static_cast<std::size_t>(dst)]};
      comm.send(dst, one);
    }
    return 0;
  }
  const std::int64_t one[1] = {value};
  comm.send(0, one);
  const std::vector<std::int64_t> offset = comm.recv(0);  // lint: blocking-ok — peer_comm::recv is bounded by the implementation's detection budget (peer_lost / regroup), never an unbounded wait
  SFP_ASSERT(offset.size() == 1, "exscan result must be one word");
  return offset[0];
}

std::vector<std::int64_t> allgather_concat(
    peer_comm& comm, std::span<const std::int64_t> words) {
  const int p = comm.size();
  std::vector<std::int64_t> all(words.begin(), words.end());
  if (p == 1) return all;
  if (comm.rank() == 0) {
    for (int src = 1; src < p; ++src) {
      const std::vector<std::int64_t> part = comm.recv(src);  // lint: blocking-ok — peer_comm::recv is bounded by the implementation's detection budget (peer_lost / regroup), never an unbounded wait
      all.insert(all.end(), part.begin(), part.end());
    }
    for (int dst = 1; dst < p; ++dst) comm.send(dst, all);
    return all;
  }
  comm.send(0, words);
  return comm.recv(0);  // lint: blocking-ok — peer_comm::recv is bounded by the implementation's detection budget (peer_lost / regroup), never an unbounded wait
}

// ---------------------------------------------------------------------------
// Survivor regroup.

peer_lost::peer_lost(int peer, bool definite)
    : std::runtime_error("peer " + std::to_string(peer) +
                         (definite ? " unreachable (delivery failure)"
                                   : " silent past the detection budget")),
      peer_(peer),
      definite_(definite) {}

quorum_lost::quorum_lost(const std::string& why)
    : std::runtime_error("quorum lost: " + why) {}

group_reconfigured::group_reconfigured(group_view view, int victim,
                                       int old_size)
    : std::runtime_error("group reconfigured to epoch " +
                         std::to_string(view.epoch) + " with " +
                         std::to_string(view.members.size()) +
                         " survivor(s) after losing rank " +
                         std::to_string(victim)),
      view_(std::move(view)),
      victim_(victim),
      old_size_(old_size) {}

regroup_stats& regroup_stats::operator+=(const regroup_stats& o) {
  stale_dropped += o.stale_dropped;
  aborted_data_dropped += o.aborted_data_dropped;
  reports_sent += o.reports_sent;
  agreement_rounds += o.agreement_rounds;
  return *this;
}

regroup_comm::regroup_comm(peer_comm& base, regroup_options opts)
    : base_(&base), opts_(opts), self_world_(base.rank()) {
  SFP_REQUIRE(opts_.min_members >= 1, "regroup quorum must be at least 1");
  SFP_REQUIRE(opts_.patience_rounds >= 0,
              "regroup patience cannot be negative");
  view_.epoch = 0;
  view_.members.resize(static_cast<std::size_t>(base.size()));
  std::iota(view_.members.begin(), view_.members.end(), 0);
}

int regroup_comm::rank() const { return dense_of_self(); }

int regroup_comm::size() const {
  return static_cast<int>(view_.members.size());
}

bool regroup_comm::group_intact() const { return view_.epoch == 0; }

int regroup_comm::world_of(int dense) const {
  SFP_REQUIRE(dense >= 0 && dense < size(), "dense rank out of range");
  return view_.members[static_cast<std::size_t>(dense)];
}

int regroup_comm::dense_of_self() const {
  const auto it = std::lower_bound(view_.members.begin(), view_.members.end(),
                                   self_world_);
  SFP_ASSERT(it != view_.members.end() && *it == self_world_,
             "rank evicted from its own group view");
  return static_cast<int>(it - view_.members.begin());
}

int regroup_comm::patience() const {
  // Auto scale: a live peer may itself be waiting out a corpse before it
  // talks to us, so the data budget must cover one full detection window
  // per group member plus slack. Measured in base-recv timeout rounds —
  // core stays clock-free; wall time is the runtime adapter's knob.
  return opts_.patience_rounds > 0 ? opts_.patience_rounds : size() + 3;
}

bool regroup_comm::is_member(int world_rank) const {
  return std::binary_search(view_.members.begin(), view_.members.end(),
                            world_rank);
}

void regroup_comm::suspect(std::vector<int>& suspects, int world_rank) const {
  if (world_rank == self_world_ || !is_member(world_rank)) return;
  if (std::find(suspects.begin(), suspects.end(), world_rank) !=
      suspects.end())
    return;
  suspects.push_back(world_rank);
  std::sort(suspects.begin(), suspects.end());
}

void regroup_comm::send(int dst, std::span<const std::int64_t> words) {
  std::vector<std::int64_t> frame;
  frame.reserve(words.size() + 2);
  frame.push_back(static_cast<std::int64_t>(view_.epoch));
  frame.push_back(frame_data);
  frame.insert(frame.end(), words.begin(), words.end());
  base_->send(world_of(dst), frame);
}

std::vector<std::int64_t> regroup_comm::recv(int src) {
  // Root-directed waits get two full detection windows of slack: in the
  // star topology the root may itself be silently waiting out a dead leaf
  // (one whole patience window) before it can serve anyone, so a leaf
  // budgeting only one window races the root's own detection and falsely
  // suspects a live root — the one suspicion that can split the group.
  const int world_src = world_of(src);
  const int rounds = world_src == view_.members.front()
                         ? 2 * patience() + 2
                         : patience();
  std::vector<std::int64_t> frame =
      recv_framed(world_src, frame_data, rounds);
  frame.erase(frame.begin(), frame.begin() + 2);
  return frame;
}

void regroup_comm::forget_peer(int peer) { base_->forget_peer(world_of(peer)); }

void regroup_comm::send_report(int world_dst,
                               const std::vector<int>& suspects) {
  std::vector<std::int64_t> frame;
  frame.reserve(3 + view_.members.size() + suspects.size());
  frame.push_back(static_cast<std::int64_t>(view_.epoch));
  frame.push_back(frame_report);
  frame.push_back(static_cast<std::int64_t>(view_.members.size()));
  for (const int m : view_.members) frame.push_back(m);
  for (const int s : suspects) frame.push_back(s);
  base_->send(world_dst, frame);
  ++stats_.reports_sent;
}

void regroup_comm::send_newgroup(int world_dst, const group_view& v) {
  std::vector<std::int64_t> frame;
  frame.reserve(2 + v.members.size());
  frame.push_back(static_cast<std::int64_t>(v.epoch));
  frame.push_back(frame_newgroup);
  for (const int m : v.members) frame.push_back(m);
  base_->send(world_dst, frame);
}

std::vector<std::int64_t> regroup_comm::recv_framed(int world_src,
                                                    std::int64_t want,
                                                    int patience_rounds,
                                                    bool regroup_on_silence) {
  int quiet = 0;
  for (;;) {
    std::vector<std::int64_t> frame;
    try {
      frame = base_->recv(world_src);  // lint: blocking-ok — base recv throws peer_lost after its detection budget; silence is counted against the patience budget here, never waited out unboundedly
    } catch (const peer_lost& lost) {
      if (lost.definite()) {
        // Delivery-level proof of death. A corpse already evicted can keep
        // tripping the transport until its queues drain; scrub and go on.
        if (lost.peer() == self_world_ || !is_member(lost.peer())) {
          base_->forget_peer(lost.peer());
          continue;
        }
        if (!regroup_on_silence) throw;
        begin_regroup(lost.peer());
      }
      if (++quiet <= patience_rounds) continue;
      if (!regroup_on_silence) throw peer_lost(world_src, false);
      begin_regroup(world_src);
    }
    quiet = 0;
    SFP_ASSERT(frame.size() >= 2, "regroup frame lacks its (epoch, kind) prefix");
    const auto epoch = static_cast<std::uint64_t>(frame[0]);
    const std::int64_t kind = frame[1];

    if (kind == frame_newgroup) {
      if (epoch <= view_.epoch) {
        // Already adopted (possibly via a report resync); duplicate mint.
        ++stats_.stale_dropped;
        continue;
      }
      group_view next;
      next.epoch = epoch;
      for (std::size_t i = 2; i < frame.size(); ++i)
        next.members.push_back(static_cast<int>(frame[i]));
      adopt_and_throw(std::move(next));
    }

    if (kind == frame_report) {
      SFP_ASSERT(frame.size() >= 3, "suspicion report lacks its member count");
      const auto nmem = static_cast<std::size_t>(frame[2]);
      SFP_ASSERT(frame.size() >= 3 + nmem, "suspicion report truncated");
      stashed_report rep;
      rep.epoch = epoch;
      for (std::size_t i = 3; i < 3 + nmem; ++i)
        rep.members.push_back(static_cast<int>(frame[i]));
      for (std::size_t i = 3 + nmem; i < frame.size(); ++i)
        rep.suspects.push_back(static_cast<int>(frame[i]));
      if (epoch > view_.epoch) {
        // The sender already lives in a newer group: a NEWGROUP we missed
        // (e.g. its minter died mid-broadcast). Its embedded view is the
        // group we belong to now — or proof that we no longer do.
        group_view next;
        next.epoch = epoch;
        next.members = std::move(rep.members);
        adopt_and_throw(std::move(next));
      }
      if (epoch < view_.epoch) ++stats_.stale_dropped;
      auto& slot = pending_reports_[world_src];
      if (rep.epoch >= slot.epoch) slot = std::move(rep);
      // A collector accepts any report — a sender still walking an older
      // epoch is nonetheless alive and naming real corpses.
      if (want == frame_report) return frame;
      if (regroup_on_silence && epoch == view_.epoch) {
        // Overheard suspicion during a data wait: if the union of all
        // current-epoch reports makes this rank the lowest unsuspected
        // member, every reporter is waiting on us to coordinate. If the
        // *sender* is that lowest member, it is a coordinator candidate
        // prodding us for a roll-call report — reply so its collect does
        // not have to falsely suspect a healthy rank that simply had
        // nothing to say.
        std::vector<int> suspects;
        for (const auto& [src, stash] : pending_reports_)
          if (stash.epoch == view_.epoch)
            for (const int s : stash.suspects) suspect(suspects, s);
        if (!suspects.empty()) {
          int lowest = -1;
          for (const int m : view_.members) {
            if (std::find(suspects.begin(), suspects.end(), m) ==
                suspects.end()) {
              lowest = m;
              break;
            }
          }
          if (lowest == world_src) send_report(world_src, suspects);
          if (lowest == self_world_) coordinate(std::move(suspects));
        }
      }
      continue;
    }

    SFP_ASSERT(kind == frame_data || kind == frame_barrier,
               "unknown regroup frame kind");
    if (epoch < view_.epoch) {
      ++stats_.stale_dropped;
      continue;
    }
    // Future-epoch payloads are impossible: the minter's NEWGROUP precedes
    // its own new-epoch payloads on this FIFO stream, and every other rank
    // reaches a new epoch only after the minter did.
    SFP_ASSERT(epoch == view_.epoch, "payload frame from a future group epoch");
    if (kind != want) {
      ++stats_.aborted_data_dropped;
      continue;
    }
    return frame;
  }
}

void regroup_comm::begin_regroup(int first_suspect) {
  std::vector<int> suspects;
  suspect(suspects, first_suspect);
  for (const auto& [src, rep] : pending_reports_)
    for (const int s : rep.suspects) suspect(suspects, s);
  SFP_ASSERT(!suspects.empty(), "regroup entered with no suspect");
  // Candidate walk: aim the report at the lowest unsuspected member; if it
  // stays silent too, suspect it and walk upward. Self as candidate means
  // this rank coordinates.
  for (;;) {
    int cand = -1;
    for (const int m : view_.members) {
      if (std::find(suspects.begin(), suspects.end(), m) == suspects.end()) {
        cand = m;
        break;
      }
    }
    if (cand < 0) throw quorum_lost("every group member suspected dead");
    // Copy, not move: coordinate only resolves by unwinding, but the walk
    // below reads the suspect list again on every CFG path through here.
    if (cand == self_world_) coordinate(suspects);
    send_report(cand, suspects);
    // The candidate may be serially collecting reports from the whole
    // group before it mints, so the NEWGROUP wait gets the largest budget:
    // one collect window per member plus a data window of slack.
    const int newgroup_patience =
        size() * (2 * patience() + 4) + patience();
    try {
      (void)recv_framed(cand, frame_newgroup, newgroup_patience,
                        /*regroup_on_silence=*/false);
      SFP_ASSERT(false, "newgroup wait resolves only by unwinding");
    } catch (const peer_lost& lost) {
      if (lost.definite()) {
        // Scrub the proven-dead peer's channel state, or its exhausted
        // retransmit queue keeps re-throwing on every recv and the walk
        // would spin (re-suspecting an already-suspected rank is a no-op).
        base_->forget_peer(lost.peer());
      }
      suspect(suspects, lost.definite() ? lost.peer() : cand);
    }
  }
}

void regroup_comm::coordinate(std::vector<int> suspects) {
  ++stats_.agreement_rounds;
  for (const auto& [src, rep] : pending_reports_)
    for (const int s : rep.suspects) suspect(suspects, s);
  const auto suspected = [&suspects](int m) {
    return std::find(suspects.begin(), suspects.end(), m) != suspects.end();
  };
  if (view_.members.front() != self_world_) {
    // New coordinator (the incumbent root is among the suspects): collect a
    // report from every unsuspected member so nobody is left behind in the
    // old epoch. The incumbent root skips this — in the rank-0-rooted
    // star, leaves cannot detect a leaf death, so their reports would
    // never come and waiting for them would deadlock the recovery.
    //
    // Prod every unsuspected member first. A member that has not noticed
    // anything wrong (a leaf whose root just died mid-collective, say)
    // would otherwise never volunteer a report and the collect below would
    // falsely suspect it; on receiving our prod it replies with its own
    // report (see recv_framed).
    const std::vector<int> roll = view_.members;
    for (const int m : roll)
      if (m != self_world_ && !suspected(m)) send_report(m, suspects);
    for (const int m : roll) {
      while (m != self_world_ && !suspected(m)) {
        try {
          // The collect window must outlast the longest wait a healthy
          // member can sit in obliviously: base recv is source-filtered,
          // so a leaf parked on the dead root's stream cannot see our prod
          // until its own root budget (2*patience()+2) lapses and it
          // reports on its own initiative. Budget one full root window
          // plus slack, or that live leaf gets falsely evicted.
          const std::vector<std::int64_t> frame =
              recv_framed(m, frame_report, 2 * patience() + 4,
                          /*regroup_on_silence=*/false);
          const auto nmem = static_cast<std::size_t>(frame[2]);
          for (std::size_t i = 3 + nmem; i < frame.size(); ++i)
            suspect(suspects, static_cast<int>(frame[i]));
          break;
        } catch (const peer_lost& lost) {
          // A definite loss may name a third rank; keep waiting on m until
          // it reports or is itself suspected. Scrub definite corpses so
          // their exhausted retransmit queues cannot re-throw forever.
          if (lost.definite()) base_->forget_peer(lost.peer());
          suspect(suspects, lost.definite() ? lost.peer() : m);
        }
      }
    }
  }
  group_view next;
  next.epoch = view_.epoch + 1;
  for (const int m : view_.members)
    if (!suspected(m)) next.members.push_back(m);
  SFP_ASSERT(std::binary_search(next.members.begin(), next.members.end(),
                                self_world_),
             "coordinator dropped itself from the minted view");
  // Broadcast to every *old* member, survivors and evicted alike, even
  // when the survivors are below quorum: everybody learns the final view
  // and aborts cleanly instead of timing out one by one. In particular a
  // falsely-suspected rank that is actually alive sees itself evicted and
  // terminates via quorum_lost at once, rather than minting a colliding
  // epoch of its own (split brain). Sends to real corpses are best-effort;
  // adopt_and_throw scrubs their channel state right after.
  for (const int m : view_.members)
    if (m != self_world_) send_newgroup(m, next);
  adopt_and_throw(std::move(next));
}

void regroup_comm::adopt_and_throw(group_view next) {
  SFP_ASSERT(next.epoch > view_.epoch, "group epoch must advance on adoption");
  SFP_ASSERT(!next.members.empty(), "adopted group view has no members");
  int victim = -1;
  for (const int m : view_.members) {
    if (std::binary_search(next.members.begin(), next.members.end(), m))
      continue;
    if (victim < 0) victim = m;
    // Evicted ranks are dead to us either way: stop their queued traffic
    // from tripping the failure machinery inside the new epoch.
    base_->forget_peer(m);
  }
  const int old_size = size();
  view_ = std::move(next);
  pending_reports_.clear();
  ++recoveries_;
  if (!std::binary_search(view_.members.begin(), view_.members.end(),
                          self_world_))
    throw quorum_lost("evicted from the surviving group");
  if (size() < opts_.min_members)
    throw quorum_lost("survivors below quorum (" + std::to_string(size()) +
                      " < " + std::to_string(opts_.min_members) + ")");
  throw group_reconfigured(view_, victim, old_size);
}

void regroup_comm::barrier() {
  const int p = size();
  if (p <= 1) return;
  const auto epoch_word = static_cast<std::int64_t>(view_.epoch);
  if (dense_of_self() == 0) {
    for (int d = 1; d < p; ++d)
      (void)recv_framed(world_of(d), frame_barrier, patience());  // lint: blocking-ok — framed recv converts silence past the patience budget into a regroup; a death during the barrier unwinds instead of hanging
    for (int d = 1; d < p; ++d) {
      const std::int64_t release[3] = {epoch_word, frame_barrier, 1};
      base_->send(world_of(d), release);
    }
    return;
  }
  const std::int64_t arrive[3] = {epoch_word, frame_barrier, 0};
  base_->send(world_of(0), arrive);
  // Same doubled budget as data recv: the root releases only after every
  // arrival, and one of those waits may be a full corpse-detection window.
  (void)recv_framed(world_of(0), frame_barrier, 2 * patience() + 2);  // lint: blocking-ok — framed recv converts silence past the patience budget into a regroup; a death during the barrier unwinds instead of hanging
}

void regroup_comm::notify_peer_lost(int world_peer) {
  base_->forget_peer(world_peer);
  if (world_peer == self_world_ || !is_member(world_peer)) return;
  begin_regroup(world_peer);
}

}  // namespace sfp::core
