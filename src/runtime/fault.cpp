#include "runtime/fault.hpp"

#include <sstream>

#include "runtime/reliable.hpp"

namespace sfp::runtime {

namespace {

std::string kill_message(int rank, std::int64_t op) {
  std::ostringstream os;
  os << "injected kill: rank " << rank << " at frame " << op;
  return os.str();
}

/// splitmix64 step — decorrelates the per-rank streams from the base seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

rank_killed::rank_killed(int rank, std::int64_t op)
    : std::runtime_error(kill_message(rank, op)), rank_(rank), op_(op) {}

fault_injector::fault_injector(const fault_plan& plan, int rank)
    : plan_(&plan),
      rank_(rank),
      key_(plan.seed ^
           (0x517cc1b727220a95ull * static_cast<std::uint64_t>(rank + 1))),
      rng_(mix(key_)) {}

fault_injector::send_action fault_injector::on_send(
    int dst, std::span<const double> message) {
  // The frame n of the link the message belongs to: its first
  // transmission, or a resend, which repeats an earlier seq. An ack
  // belongs to no frame (n is then the link's frame count).
  link_state& link = links_[dst];
  std::int64_t n = link.frames;
  bool ack = false;
  envelope h;
  if (wire::read_header(message, &h)) {
    ack = h.type == envelope::kind::ack;
    if (!ack) {
      if (link.frames == 0) link.first_seq = h.seq;
      n = static_cast<std::int64_t>(h.seq - link.first_seq);
    }
  }
  send_action action;
  action.frame = !ack && n == link.frames;
  const bool resend = !ack && !action.frame;
  if (action.frame) {
    ++link.frames;
    ++frames_;
    for (const auto& kill : plan_->kills)
      if (kill.rank == rank_ && kill.at_op == frames_)
        throw rank_killed(rank_, frames_);
  }
  for (const auto& mf : plan_->message_faults) {
    if (mf.src != -1 && mf.src != rank_) continue;
    if (mf.dst != -1 && mf.dst != dst) continue;
    if (mf.frame >= 0 &&
        (n != mf.frame || !(action.frame || (mf.resends && resend))))
      continue;
    // Draw in a fixed order so the rng stream is identical whether or not
    // an earlier clause already triggered.
    const bool drop =
        mf.drop_probability > 0 && rng_.uniform() < mf.drop_probability;
    const bool delay =
        mf.delay_probability > 0 && rng_.uniform() < mf.delay_probability;
    const bool dup = mf.duplicate_probability > 0 &&
                     rng_.uniform() < mf.duplicate_probability;
    const bool corrupt =
        mf.corrupt_probability > 0 && rng_.uniform() < mf.corrupt_probability;
    const bool truncate = mf.truncate_probability > 0 &&
                          rng_.uniform() < mf.truncate_probability;
    const bool reorder =
        mf.reorder_probability > 0 && rng_.uniform() < mf.reorder_probability;
    action.drop = action.drop || drop;
    action.duplicate = action.duplicate || dup;
    if (delay && mf.delay > action.delay) action.delay = mf.delay;
    // Payload faults only apply to non-empty payloads. Positional
    // randomness (which bit, where to cut) comes from a stream derived from
    // (seed, rank, dst, frame index) alone — not from the shared per-rank
    // stream or the entry's place in the plan — so deleting one plan entry
    // never moves another entry's bit flip. Delta-debugging a chaos
    // schedule (seam/chaos.hpp) depends on this.
    if ((corrupt || truncate) && !message.empty()) {
      rng pos(mix(key_ ^
                  (0xd1b54a32d192ed03ull *
                   (static_cast<std::uint64_t>(dst) + 2)) ^
                  (0x2545f4914f6cdd1dull *
                   (static_cast<std::uint64_t>(n) + 1))));
      const std::size_t element = pos.below(message.size());
      const int bit = static_cast<int>(pos.below(64));
      const std::size_t cut = pos.below(message.size());
      if (corrupt && !action.corrupt) {
        action.corrupt = true;
        action.corrupt_element = element;
        action.corrupt_bit = bit;
      }
      if (truncate && !action.truncate) {
        action.truncate = true;
        action.truncate_to = cut;
      }
    }
    action.reorder = action.reorder || reorder;
  }
  return action;
}

}  // namespace sfp::runtime
