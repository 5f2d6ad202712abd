#include "runtime/world.hpp"

#include <exception>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"

namespace sfp::runtime {

namespace {

obs::histogram& send_bytes_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("runtime.send.message_bytes");
  return h;
}

int validated_rank_count(int n) {
  SFP_REQUIRE(n >= 1, "world needs at least one rank");
  return n;
}

}  // namespace

class world::endpoint final : public transport {
 public:
  endpoint(world& w, int rank) : world_(&w), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return world_->size(); }

  void send(int dst, std::span<const double> data) override {
    world_->send(rank_, dst, data);
  }

  bool try_recv_any(std::chrono::microseconds wait,
                    any_message* out) override {
    SFP_REQUIRE(out != nullptr, "try_recv_any needs an output slot");
    return world_->take_any(rank_, wait, out);
  }

 private:
  world* world_;
  int rank_;
};

world::world(int num_ranks, fault_plan faults)
    : num_ranks_(validated_rank_count(num_ranks)),
      faults_(std::move(faults)),
      inboxes_(static_cast<std::size_t>(num_ranks)),
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
  injection_pipeline& pipeline = pipelines_[static_cast<std::size_t>(src)];
  pipeline.count_op();
  injection_pipeline::outcome out = pipeline.on_send(dst, data);
  for (int c = 0; c < out.accounted_copies; ++c)
    send_bytes_hist().observe(
        static_cast<std::int64_t>(out.copy_doubles * sizeof(double)));
  for (auto& image : out.wire) deliver(dst, src, std::move(image));
}

void world::deliver(int dst, int src, std::vector<double> image) {
  inbox& box = inboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.from[static_cast<std::size_t>(src)].push_back(std::move(image));
  }
  box.ready.notify_all();
}

bool world::take_any(int dst, std::chrono::microseconds wait,
                     any_message* out) {
  inbox& box = inboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mutex);
  // Lowest source rank first: a deterministic drain order given identical
  // inbox contents (arrival interleaving still varies, but the reliable
  // layer is insensitive to it).
  const auto find_match = [&]() {
    for (auto it = box.from.begin(); it != box.from.end(); ++it)
      if (!it->empty()) return it;
    return box.from.end();
  };
  const auto ready = [&] {
    return abort_requested() || find_match() != box.from.end();
  };
  if (!box.ready.wait_for(lock, wait, ready)) return false;
  // Drain-then-abort: a message that already arrived is still delivered so
  // a rank about to make progress is not failed spuriously; the abort is
  // observed once the inbox is empty.
  const auto it = find_match();
  rank_counters& counters = counters_[static_cast<std::size_t>(dst)];
  if (it == box.from.end()) {
    ++counters.aborts_observed;
    throw world_aborted(dst, failed_rank());
  }
  out->src = static_cast<int>(it - box.from.begin());
  out->payload = std::move(it->front());
  it->pop_front();
  ++counters.messages_received;
  counters.doubles_received += static_cast<std::int64_t>(out->payload.size());
  return true;
}

void world::trigger_abort(int rank) {
  int expected = -1;
  failed_rank_.compare_exchange_strong(expected, rank,
                                       std::memory_order_acq_rel);
  abort_flag_.store(true, std::memory_order_release);
  // Wake every potential waiter. Taking each lock before notifying closes
  // the race against a rank that checked the flag but has not yet parked.
  for (auto& box : inboxes_) {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.ready.notify_all();
  }
}

void world::reset_run_state() {
  abort_flag_.store(false, std::memory_order_release);
  failed_rank_.store(-1, std::memory_order_release);
  for (auto& box : inboxes_)
    box.from.assign(static_cast<std::size_t>(num_ranks_), {});
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
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks_));
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  for (int p = 0; p < num_ranks_; ++p) {
    threads.emplace_back([this, p, &rank_main, &errors] {
      if (obs::trace::enabled())
        obs::trace::set_thread_name("rank " + std::to_string(p));
      endpoint self(*this, p);
      try {
        rank_main(self);
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
        trigger_abort(p);
      }
    });
  }
  for (auto& t : threads) t.join();
  publish_counters(total_counters());
  const int failed = failed_rank();
  if (failed >= 0) {
    // failed_rank_ is the first rank whose exception escaped — the root
    // cause; everyone else holds a cascading world_aborted.
    std::rethrow_exception(errors[static_cast<std::size_t>(failed)]);
  }
}

}  // namespace sfp::runtime
