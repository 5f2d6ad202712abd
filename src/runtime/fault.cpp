#include "runtime/fault.hpp"

#include <sstream>

namespace sfp::runtime {

namespace {

std::string kill_message(int rank, std::int64_t op) {
  std::ostringstream os;
  os << "injected kill: rank " << rank << " at op " << op;
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
      rng_(mix(plan.seed ^ (0x517cc1b727220a95ull *
                            static_cast<std::uint64_t>(rank + 1)))),
      matches_(plan.message_faults.size(), 0) {}

void fault_injector::on_op() {
  ++ops_;
  for (const auto& kill : plan_->kills)
    if (kill.rank == rank_ && kill.at_op == ops_)
      throw rank_killed(rank_, ops_);
}

fault_injector::send_action fault_injector::on_send(int dst,
                                                    std::size_t payload_size) {
  send_action action;
  for (std::size_t i = 0; i < plan_->message_faults.size(); ++i) {
    const auto& mf = plan_->message_faults[i];
    if (mf.src != -1 && mf.src != rank_) continue;
    if (mf.dst != -1 && mf.dst != dst) continue;
    if (payload_size < mf.min_payload) continue;
    action.matched = true;
    // The fire window gates the *application*, never the draws: the stream
    // advances identically whether or not this match is live, so shrinking
    // a window cannot perturb the other entries' randomness.
    const std::int64_t idx = matches_[i]++;
    const bool live =
        idx >= mf.fire_from &&
        (mf.fire_count < 0 || idx < mf.fire_from + mf.fire_count);
    // Draw in a fixed order so the rng stream is identical whether or not
    // an earlier clause already triggered, and whether or not this match is
    // inside the fire window.
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
    action.drop = action.drop || (drop && live);
    action.duplicate = action.duplicate || (dup && live);
    if (delay && live && mf.delay > action.delay) action.delay = mf.delay;
    // Payload faults only apply to non-empty payloads. Positional
    // randomness (which bit, where to cut) comes from a stream derived from
    // (seed, rank, the entry's dst, match index) alone — not from the shared
    // per-rank stream or the entry's place in the plan — so deleting or
    // narrowing one plan entry never moves another entry's bit flip.
    // Delta-debugging a chaos schedule (seam/chaos.hpp) depends on this.
    if ((corrupt || truncate) && payload_size > 0 && live) {
      const auto link = static_cast<std::uint64_t>(mf.dst + 1);  // -1 -> 0
      rng pos(mix(plan_->seed ^
                  (0x517cc1b727220a95ull *
                   static_cast<std::uint64_t>(rank_ + 1)) ^
                  (0xd1b54a32d192ed03ull * (link + 1)) ^
                  (0x2545f4914f6cdd1dull *
                   (static_cast<std::uint64_t>(idx) + 1))));
      const std::size_t element = pos.below(payload_size);
      const int bit = static_cast<int>(pos.below(64));
      const std::size_t cut = pos.below(payload_size);
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
    action.reorder = action.reorder || (reorder && live);
  }
  return action;
}

}  // namespace sfp::runtime
