#include "runtime/transport.hpp"

#include <cstring>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "util/require.hpp"

namespace sfp::runtime {

namespace {

std::string aborted_message(int self, int failed_rank) {
  std::ostringstream os;
  os << "world aborted: rank " << failed_rank << " failed (observed on rank "
     << self << ")";
  return os.str();
}

}  // namespace

world_aborted::world_aborted(int self, int failed_rank)
    : std::runtime_error(aborted_message(self, failed_rank)),
      failed_rank_(failed_rank) {}

rank_counters& rank_counters::operator+=(const rank_counters& o) {
  messages_sent += o.messages_sent;
  messages_received += o.messages_received;
  doubles_sent += o.doubles_sent;
  doubles_received += o.doubles_received;
  aborts_observed += o.aborts_observed;
  injected_kills += o.injected_kills;
  injected_drops += o.injected_drops;
  injected_delays += o.injected_delays;
  injected_duplicates += o.injected_duplicates;
  injected_corruptions += o.injected_corruptions;
  injected_truncations += o.injected_truncations;
  injected_reorders += o.injected_reorders;
  return *this;
}

void publish_counters(const rank_counters& t) {
  obs::registry& reg = obs::registry::global();
  reg.get_counter("runtime.messages_sent").add(t.messages_sent);
  reg.get_counter("runtime.messages_received").add(t.messages_received);
  reg.get_counter("runtime.doubles_sent").add(t.doubles_sent);
  reg.get_counter("runtime.doubles_received").add(t.doubles_received);
  reg.get_counter("runtime.aborts_observed").add(t.aborts_observed);
  reg.get_counter("runtime.injected.kills").add(t.injected_kills);
  reg.get_counter("runtime.injected.drops").add(t.injected_drops);
  reg.get_counter("runtime.injected.delays").add(t.injected_delays);
  reg.get_counter("runtime.injected.duplicates").add(t.injected_duplicates);
  reg.get_counter("runtime.injected.corruptions").add(t.injected_corruptions);
  reg.get_counter("runtime.injected.truncations").add(t.injected_truncations);
  reg.get_counter("runtime.injected.reorders").add(t.injected_reorders);
}

transport::~transport() = default;

injection_pipeline::injection_pipeline(const fault_plan& plan, int rank,
                                       rank_counters* counters)
    : injector_(plan, rank), counters_(counters) {
  SFP_REQUIRE(counters != nullptr, "injection_pipeline needs counters");
}

void injection_pipeline::count_op() {
  try {
    injector_.on_op();
  } catch (const rank_killed&) {
    ++counters_->injected_kills;
    throw;
  }
}

injection_pipeline::outcome injection_pipeline::on_send(
    int dst, std::span<const double> data) {
  outcome out;
  const fault_injector::send_action action =
      injector_.on_send(dst, data.size());
  if (action.drop) {
    ++counters_->injected_drops;
    return out;
  }
  if (action.delay.count() > 0) {
    ++counters_->injected_delays;
    std::this_thread::sleep_for(action.delay);
  }
  // Build the (possibly mangled) wire image once; duplicates replay it.
  std::vector<double> wire(data.begin(), data.end());
  if (action.truncate) {
    ++counters_->injected_truncations;
    wire.resize(action.truncate_to);
  }
  if (action.corrupt && action.corrupt_element < wire.size()) {
    ++counters_->injected_corruptions;
    std::uint64_t bits;
    std::memcpy(&bits, &wire[action.corrupt_element], sizeof(bits));
    bits ^= std::uint64_t{1} << action.corrupt_bit;
    std::memcpy(&wire[action.corrupt_element], &bits, sizeof(bits));
  }
  std::vector<double> held;
  bool flush_held = false;
  const auto it = action.matched ? stash_.find(dst) : stash_.end();
  if (it != stash_.end()) {
    held = std::move(it->second);
    stash_.erase(it);
    flush_held = true;  // delivered after this message: the injected swap
  }
  const bool stash_this = action.reorder && !flush_held;
  if (stash_this) ++counters_->injected_reorders;
  // A reordered message is held as a single copy (duplication would be
  // collapsed by the stash anyway); a message that never gets a successor
  // on its stream stays stashed, i.e. degenerates to a drop.
  const int copies = action.duplicate && !stash_this ? 2 : 1;
  if (action.duplicate && !stash_this) ++counters_->injected_duplicates;
  out.accounted_copies = copies;
  out.copy_doubles = wire.size();
  counters_->messages_sent += copies;
  counters_->doubles_sent +=
      copies * static_cast<std::int64_t>(wire.size());
  if (stash_this) {
    stash_[dst] = std::move(wire);
  } else {
    for (int c = 1; c < copies; ++c) out.wire.push_back(wire);
    out.wire.push_back(std::move(wire));
  }
  if (flush_held) out.wire.push_back(std::move(held));
  return out;
}

}  // namespace sfp::runtime
