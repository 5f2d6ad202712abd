#include "runtime/world.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace sfp::runtime {

namespace {

int validated_rank_count(int n) {
  SFP_REQUIRE(n >= 1, "world needs at least one rank");
  return n;
}

std::string describe(wait_reason why) {
  if (why.what == wait_reason::kind::fence) return "fence";
  return "recv(" + std::to_string(why.src) + ")";
}

}  // namespace

// A rank's transport forwards into the world it was built on.

int transport::size() const { return world_->size(); }

void transport::send(int dst, std::span<const double> data) {
  world_->send(rank_, dst, data);
}

recv_status transport::recv_or_quiescent(any_message* out, wait_reason why) {
  SFP_REQUIRE(out != nullptr, "recv_or_quiescent needs an output slot");
  return world_->take_any(rank_, why, out);
}

bool transport::peer_exited(int peer) const {
  SFP_REQUIRE(peer >= 0 && peer < world_->size(), "peer out of range");
  world::rank_slot& slot = world_->slots_[static_cast<std::size_t>(peer)];
  std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.exited;
}

world::world(int num_ranks, fault_plan faults)
    : num_ranks_(validated_rank_count(num_ranks)),
      faults_(std::move(faults)),
      slots_(static_cast<std::size_t>(num_ranks)),
      counters_(static_cast<std::size_t>(num_ranks)) {}

world::~world() = default;

const rank_counters& world::counters(int rank) const {
  SFP_REQUIRE(rank >= 0 && rank < num_ranks_, "rank out of range");
  return counters_[static_cast<std::size_t>(rank)];
}

rank_counters world::total_counters() const {
  rank_counters total;
  for (const auto& c : counters_) total += c;
  return total;
}

void world::send(int src, int dst, std::span<const double> data) {
  SFP_REQUIRE(dst >= 0 && dst < num_ranks_, "destination out of range");
  SFP_TRACE_SCOPE_CAT("world.send", "runtime");
  std::vector<std::vector<double>> images;
  try {
    images = pipelines_[static_cast<std::size_t>(src)].on_send(dst, data);
  } catch (const rank_killed&) {
    // A killed rank is dead whatever its caller does with the exception:
    // the kill is the run's failure from this frame on.
    std::lock_guard<std::mutex> lock(mutex_);
    abort_locked(src, std::current_exception());
    throw;
  }
  sends_.fetch_add(1, std::memory_order_relaxed);
  for (auto& image : images) deliver(dst, src, std::move(image));
}

void world::deliver(int dst, int src, std::vector<double> image) {
  rank_slot& slot = slots_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.exited) return;  // nobody will ever read it
    slot.from[static_cast<std::size_t>(src)].push_back(std::move(image));
  }
  // A blocked receiver stays marked until it wakes: the sender is running,
  // so the world is not quiescent, and the detector checks inboxes too.
  slot.ready.notify_one();
}

recv_status world::take_any(int dst, wait_reason why, any_message* out) {
  rank_slot& slot = slots_[static_cast<std::size_t>(dst)];
  rank_counters& counters = counters_[static_cast<std::size_t>(dst)];
  const auto first_queued = [&] {
    return std::find_if(slot.from.begin(), slot.from.end(),
                        [](const auto& q) { return !q.empty(); });
  };
  // With slot.mutex held and the rank unmarked: what is due now, if any.
  const auto take_due = [&]() -> std::optional<recv_status> {
    // Lowest source rank first: a deterministic drain order given
    // identical inbox contents. Drain-then-abort: a message that already
    // arrived is still delivered, so a rank about to make progress is not
    // failed spuriously. A message also supersedes a pending quiescent
    // round: its sender was not blocked.
    if (const auto it = first_queued(); it != slot.from.end()) {
      slot.quiet = false;
      out->src = static_cast<int>(it - slot.from.begin());
      out->payload = std::move(it->front());
      it->pop_front();
      ++counters.messages_received;
      counters.doubles_received +=
          static_cast<std::int64_t>(out->payload.size());
      return recv_status::message;
    }
    if (abort_requested()) {
      ++counters.aborts_observed;
      throw world_aborted(dst, failed_rank());
    }
    if (slot.quiet) {
      slot.quiet = false;
      return recv_status::quiescent;
    }
    return std::nullopt;
  };
  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (const auto due = take_due()) return *due;
  }
  {
    // Mark the rank blocked, rechecking its inbox under both locks.
    std::lock_guard<std::mutex> world_lock(mutex_);
    {
      std::lock_guard<std::mutex> lock(slot.mutex);
      if (const auto due = take_due()) return *due;
      slot.why = why;
      slot.blocked = true;
    }
    detect_quiescence();  // may start the round, or abort, itself
  }
  {
    std::unique_lock<std::mutex> lock(slot.mutex);
    slot.ready.wait(lock, [&] {
      return !slot.blocked || first_queued() != slot.from.end() ||
             abort_requested();
    });
    if (!slot.blocked) return *take_due();  // a quiescent round unmarked it
  }
  // Woken by a message or an abort: unmark under the world lock, so a rank
  // the detector counts as blocked never reads (and then sends) while it
  // checks the inboxes.
  std::lock_guard<std::mutex> world_lock(mutex_);
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.blocked = false;
  return *take_due();
}

void world::retire(int rank) {
  std::lock_guard<std::mutex> world_lock(mutex_);
  {
    rank_slot& slot = slots_[static_cast<std::size_t>(rank)];
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.exited = true;
    slot.from.clear();
  }
  detect_quiescence();
}

void world::detect_quiescence() {
  bool any_blocked = false;
  for (const rank_slot& s : slots_) {
    if (!s.exited && !s.blocked) return;  // a live rank is still running
    any_blocked = any_blocked || s.blocked;
  }
  if (!any_blocked || abort_requested()) return;
  // Every live rank is marked blocked, and none can unmark while this holds
  // mutex_, so none can send: an inbox that is empty now stays empty. One
  // that is not belongs to a rank about to wake; it re-runs the detector
  // when it blocks again.
  for (rank_slot& s : slots_) {
    if (!s.blocked) continue;
    std::lock_guard<std::mutex> lock(s.mutex);
    for (const auto& q : s.from)
      if (!q.empty()) return;
  }
  const std::int64_t sends = sends_.load(std::memory_order_relaxed);
  if (sends != sends_at_round_) {
    sends_at_round_ = sends;
    for (rank_slot& s : slots_) {
      if (!s.blocked) continue;
      {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.blocked = false;
        s.quiet = true;
      }
      s.ready.notify_one();
    }
    return;
  }
  // The last round resent nothing, so no frame anywhere is unacked: every
  // waiting rank waits for a message that was never sent.
  std::string what = "world deadlocked: no rank has a lost frame to resend";
  int first = -1;
  for (int r = 0; r < num_ranks_; ++r) {
    const rank_slot& s = slots_[static_cast<std::size_t>(r)];
    if (!s.blocked) continue;
    if (first < 0) first = r;
    what += "; rank " + std::to_string(r) + ": " + describe(s.why);
  }
  abort_locked(first, std::make_exception_ptr(world_deadlock(what)));
}

void world::abort_locked(int rank, std::exception_ptr cause) {
  int expected = -1;
  if (failed_rank_.compare_exchange_strong(expected, rank,
                                           std::memory_order_acq_rel))
    root_cause_ = std::move(cause);
  // Wake every potential waiter. Taking its lock closes the race against
  // a rank that checked the flag but has not yet parked.
  for (rank_slot& s : slots_) {
    { std::lock_guard<std::mutex> lock(s.mutex); }
    s.ready.notify_all();
  }
}

void world::reset_run_state() {
  failed_rank_.store(-1, std::memory_order_release);
  root_cause_ = nullptr;
  for (rank_slot& s : slots_) {
    s.from.assign(static_cast<std::size_t>(num_ranks_), {});
    s.blocked = s.quiet = s.exited = false;
  }
  sends_at_round_ = -1;
  sends_.store(0, std::memory_order_relaxed);
  counters_.assign(static_cast<std::size_t>(num_ranks_), rank_counters{});
  // counters_ is at its final size here, so the pipelines' pointers into it
  // stay valid for the whole run.
  pipelines_.clear();
  pipelines_.reserve(static_cast<std::size_t>(num_ranks_));
  for (int p = 0; p < num_ranks_; ++p)
    pipelines_.emplace_back(faults_, p,
                            &counters_[static_cast<std::size_t>(p)]);
}

void world::run(const std::function<void(transport&)>& rank_main) {
  SFP_REQUIRE(static_cast<bool>(rank_main), "rank_main must be callable");
  reset_run_state();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  for (int p = 0; p < num_ranks_; ++p) {
    threads.emplace_back([this, p, &rank_main] {
      if (obs::trace::enabled())
        obs::trace::set_thread_name("rank " + std::to_string(p));
      transport self(*this, p);
      try {
        rank_main(self);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        abort_locked(p, std::current_exception());
      }
      retire(p);
    });
  }
  for (auto& t : threads) t.join();
  publish_counters(total_counters());
  // The root cause is the first failure, a rank's exception or a deadlock;
  // every other rank holds a cascading world_aborted.
  if (failed_rank() >= 0) std::rethrow_exception(root_cause_);
}

}  // namespace sfp::runtime
