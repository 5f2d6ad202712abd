#pragma once
// Deterministic fault injection for the virtual-rank runtime.
//
// A fault_plan is a declarative chaos schedule: kill rank r at its n-th
// frame, and/or drop/delay/duplicate messages on selected (src, dst) links
// with given probabilities. Every fault has one address, the frame: the
// first transmission of a sequenced wire message (a reliable data frame or
// fence token, named by its envelope's (src, dst, seq)) or a raw datagram
// a test sends straight on a transport. Acks and resends are never frames.
// A rank sends its frames in program order, so an address names the same
// message on every run. All randomness comes from a per-rank
// splitmix-derived rng, and every decision is a function of (seed, rank,
// that rank's own send sequence) only — never of thread scheduling. Plans
// are built in code or lowered from a seam::chaos_schedule
// (seam/chaos.hpp), the one fault file format.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
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

  /// Simulated process death: rank `rank` throws rank_killed as it is
  /// about to send its `at_op`-th frame of the attempt (counted from 1).
  /// Acks, resends and receives never count.
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
  /// reordered one is held back and delivered right after the next frame
  /// on its link. Raw recv_or_quiescent users see the mangled payloads
  /// verbatim; the reliable transport (runtime/reliable.hpp) is what
  /// detects and heals them.
  struct message_fault {
    int src = -1, dst = -1;
    double drop_probability = 0;
    double delay_probability = 0;
    double duplicate_probability = 0;
    double corrupt_probability = 0;   ///< flip one random payload bit
    double truncate_probability = 0;  ///< drop a random trailing slice
    double reorder_probability = 0;   ///< deliver after the link's next frame
    std::chrono::microseconds delay{200};
    /// The entry's address: frame `frame` of each matching link, counted
    /// from 0 (seq minus the link's first seq), on its first transmission.
    /// Discrete chaos schedules (seam/chaos.hpp) pin one fault to one frame
    /// with probability 1, which is what makes a failing schedule
    /// delta-debuggable. -1: no address, a lossy wire that draws on every
    /// message of its link, acks and resends included.
    std::int64_t frame = -1;
    /// TEST HOOK — an addressed entry also hits every resend of its frame:
    /// that one frame is lost for good while the rest of its link works.
    bool resends = false;
  };
  std::vector<message_fault> message_faults;

  bool empty() const { return kills.empty() && message_faults.empty(); }
};

/// Per-rank fault-decision engine of the injection pipeline
/// (runtime/transport.hpp). One instance per rank per world::run; all
/// state advances only with that rank's own send sequence.
class fault_injector {
 public:
  fault_injector(const fault_plan& plan, int rank);

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
    bool frame = true;  ///< the message is a frame: it releases a reorder
  };
  /// Decide the fate of one wire image to `dst`. Its envelope header names
  /// the frame it belongs to (a message that is no envelope is a raw
  /// datagram, and so a frame). A frame counts toward the rank's kills
  /// first: throws rank_killed when a kill is due at it.
  send_action on_send(int dst, std::span<const double> message);

 private:
  /// Frames sent on one outgoing link. A reliable channel numbers a link's
  /// data frames and fence tokens with consecutive seqs from its first.
  struct link_state {
    std::int64_t frames = 0;
    std::uint64_t first_seq = 0;
  };

  const fault_plan* plan_;
  int rank_;
  std::int64_t frames_ = 0;  ///< frames sent so far, for the kills
  std::uint64_t key_;        ///< (seed, rank): every stream derives from it
  rng rng_;
  std::map<int, link_state> links_;  ///< by destination
};

}  // namespace sfp::runtime
