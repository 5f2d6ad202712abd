#pragma once
// Deterministic fault injection for the virtual-rank runtime.
//
// A fault_plan is a declarative chaos schedule: kill rank r at its n-th
// communication op, and/or drop/delay/duplicate messages on selected
// (src, dst) streams with given probabilities. All randomness comes
// from a per-rank splitmix-derived rng, and every decision is a function of
// (seed, rank, that rank's deterministic op sequence) only — never of thread
// scheduling — so a chaos test reproduces bit-for-bit across runs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sfp::runtime {

/// Thrown inside a rank when a planned kill fires (simulated process death).
class rank_killed : public std::runtime_error {
 public:
  rank_killed(int rank, std::int64_t op);
  int rank() const { return rank_; }
  std::int64_t op() const { return op_; }

 private:
  int rank_;
  std::int64_t op_;
};

/// Declarative, seeded fault schedule a fabric run injects
/// (runtime::world, built per attempt by runtime::run_resilient).
struct fault_plan {
  std::uint64_t seed = 0;  ///< base seed for all probabilistic decisions

  /// Simulated process death: rank `rank` throws rank_killed when its
  /// per-rank communication-op counter (its sends, counted from 1; receives
  /// never count) reaches `at_op`.
  struct kill_spec {
    int rank = -1;
    std::int64_t at_op = 0;
  };
  std::vector<kill_spec> kills;

  /// Message-level chaos on sends matching (src, dst); -1 = wildcard.
  /// Probabilities are evaluated independently per matching send, on the
  /// sender's deterministic rng stream. A dropped message is never
  /// delivered; a delayed one is delivered after `delay`; a duplicated one
  /// is delivered twice back-to-back (in-order semantics are preserved).
  ///
  /// Payload faults model a lossy wire rather than a lossy queue: a
  /// corrupted message is delivered with one random bit flipped, a
  /// truncated one with a random number of trailing doubles removed, and a
  /// reordered one swaps delivery order with the *next* matching send on
  /// the same (src, dst) stream. Raw try_recv_any users see the mangled
  /// payloads verbatim; the reliable transport (runtime/reliable.hpp) is
  /// what detects and heals them.
  struct message_fault {
    int src = -1, dst = -1;
    double drop_probability = 0;
    double delay_probability = 0;
    double duplicate_probability = 0;
    double corrupt_probability = 0;   ///< flip one random payload bit
    double truncate_probability = 0;  ///< drop a random trailing slice
    double reorder_probability = 0;   ///< swap with the next matching send
    std::chrono::microseconds delay{200};
    /// Fire window over this entry's matching sends, counted from 0 in the
    /// sender's own order: the entry is live for match indices
    /// [fire_from, fire_from + fire_count); fire_count -1 = unlimited.
    /// Discrete chaos schedules (seam/chaos.hpp) use probability 1 with
    /// fire_count 1 to pin one fault to one message, which is what makes a
    /// failing schedule delta-debuggable. The rng stream advances on every
    /// match, live or not, so narrowing a window never shifts the
    /// randomness of other entries.
    std::int64_t fire_from = 0;
    std::int64_t fire_count = -1;
    /// Only sends with at least this many payload doubles match. Chaos
    /// schedules use this to pin faults to reliable *data* frames (header
    /// + payload) and skip the header-only ack/fence frames, whose send
    /// order is timing-dependent and would make match indices unstable.
    std::size_t min_payload = 0;
  };
  std::vector<message_fault> message_faults;

  bool empty() const { return kills.empty() && message_faults.empty(); }
};

/// Per-rank fault-decision engine. One instance per rank per world::run; all
/// state advances only with that rank's own op sequence.
class fault_injector {
 public:
  fault_injector(const fault_plan& plan, int rank);

  /// Count one communication op; throws rank_killed when a kill is due.
  void on_op();

  /// What to do with one outgoing message. All randomness (which bit to
  /// flip, where to cut) is drawn here, on the sender's deterministic
  /// stream, so the caller only has to apply the decision.
  struct send_action {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    bool truncate = false;
    bool reorder = false;
    std::size_t corrupt_element = 0;  ///< payload index of the flipped bit
    int corrupt_bit = 0;              ///< bit position within that double
    std::size_t truncate_to = 0;      ///< new payload length (< size)
    std::chrono::microseconds delay{0};  ///< zero = deliver immediately
    bool matched = false;  ///< passed some entry's src/dst/size filter
  };
  send_action on_send(int dst, std::size_t payload_size);

  std::int64_t ops() const { return ops_; }

 private:
  const fault_plan* plan_;
  int rank_;
  std::int64_t ops_ = 0;
  rng rng_;
  /// Per-entry count of sends that matched (src, dst), for the
  /// fire_from/fire_count window.
  std::vector<std::int64_t> matches_;
};

}  // namespace sfp::runtime
