#pragma once
// Virtual-rank runtime: the one rank fabric. Each rank runs on its own
// thread with its own transport (runtime/transport.hpp), whose send()
// runs the payload through the rank's injection_pipeline and pushes the
// resulting images straight into the destination's inbox, and whose
// recv_or_quiescent() dequeues from the rank's own inbox. It is the
// stand-in for MPI point-to-point on the paper's cluster: unreliable
// datagrams, with the reliable channel (runtime/reliable.hpp) on top for
// ordering, dedup and delivery. In the library, runtime::run_resilient
// (fabric.hpp) builds the world of every attempt; tests build worlds
// directly.
//
// Semantics: send() copies its payload and has delivered it (or dropped
// it, by injection) before it returns; messages on a fixed (source,
// destination) stream are delivered in send order unless fault injection
// says otherwise.
//
// Quiescence: since a send lands before it returns and the receive is a
// rank body's only blocking point, every live rank blocked with an empty
// inbox means nothing is in flight (termination detection in one process;
// Dijkstra–Scholten, Mattern 1987): a blocked mark per rank under one
// world lock, checked against every inbox, no clock. Sends and reads of a
// waiting inbox take only that inbox's lock. A rank computing or sleeping
// in an injected delay is not blocked; a rank whose body returned is not
// live.
//
// Fault tolerance: when any rank throws, a planned kill fires (even if the
// killed rank's code swallows rank_killed), or the world deadlocks, a
// shared abort flag wakes every rank parked in recv_or_quiescent with
// world_aborted (after its inbox drains) instead of hanging the join loop.
// A seeded fault_plan injects deterministic kills and message drop/delay/
// duplication/corruption/truncation/reorder, each addressed to a frame of
// its link (fault.hpp), so one chaos schedule replays bit for bit.
// Per-rank robustness counters account for everything that happened.
//
// Observability: every send is a trace span when an obs session is active
// (rank threads are named "rank N" in the dump), and run() publishes the
// per-run counters into the global obs::registry. See
// docs/observability.md.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/transport.hpp"

namespace sfp::runtime {

/// A fixed-size group of virtual ranks. run() executes the given function
/// once per rank, each on its own thread with its own transport endpoint,
/// and returns when all complete. Exceptions thrown by any rank abort the
/// peers (they throw world_aborted out of recv_or_quiescent) and the
/// root-cause exception is rethrown from run(); a deadlock is rethrown as
/// world_deadlock. A world may be reused: run() resets all fabric and
/// failure state.
class world {
 public:
  explicit world(int num_ranks, fault_plan faults = {});
  ~world();

  world(const world&) = delete;
  world& operator=(const world&) = delete;

  int size() const { return num_ranks_; }

  void run(const std::function<void(transport&)>& rank_main);

  /// Rank whose exception triggered the abort of the last run (for a
  /// deadlock, the lowest waiting rank), or -1 if the last run completed
  /// cleanly.
  int failed_rank() const { return failed_rank_.load(std::memory_order_acquire); }
  bool aborted() const { return failed_rank() >= 0; }

  /// Robustness counters from the last run.
  const rank_counters& counters(int rank) const;
  rank_counters total_counters() const;

 private:
  friend class transport;  ///< a rank's endpoint: send and take_any

  /// One rank's inbox and wait state. `mutex` guards the inbox and
  /// `quiet`; the flags the detector reads (`blocked`, `exited`, `why`) are
  /// written under both it and the world's mutex_, so either lock reads
  /// them. Lock order: mutex_ before any slot's mutex.
  struct rank_slot {
    std::mutex mutex;
    std::condition_variable ready;
    std::vector<std::deque<std::vector<double>>> from;  ///< per-source FIFO
    bool blocked = false;  ///< parked in take_any, found its inbox empty
    bool quiet = false;    ///< a quiescent round is due to this rank
    bool exited = false;   ///< the rank body returned: not live
    /// What a blocked rank waits for.
    wait_reason why{wait_reason::kind::recv};
  };

  void send(int src, int dst, std::span<const double> data);
  void deliver(int dst, int src, std::vector<double> image);
  recv_status take_any(int dst, wait_reason why, any_message* out);
  /// Mark `rank`'s body as returned; the rest may now be quiescent.
  void retire(int rank);
  /// With mutex_ held and no slot's: once every live rank is blocked with
  /// an empty inbox, start a quiescent round, or abort with world_deadlock
  /// if nothing was sent since the last one.
  void detect_quiescence();
  /// With mutex_ held and no slot's: record `cause` if it is the first
  /// failure, and wake every rank.
  void abort_locked(int rank, std::exception_ptr cause);
  bool abort_requested() const { return failed_rank() >= 0; }
  void reset_run_state();

  int num_ranks_;
  fault_plan faults_;
  /// Guards the wait bookkeeping: every slot's blocked/exited/why and
  /// sends_at_round_. Sends and reads of a waiting inbox never take it.
  std::mutex mutex_;
  std::vector<rank_slot> slots_;
  std::int64_t sends_at_round_ = -1;  ///< sends_ at the last round; -1: none
  /// Every send a kill did not stop, dropped or not (a dropped resend is
  /// progress too). Relaxed: a sender takes mutex_ (to block or retire)
  /// before the detector can count it as blocked.
  std::atomic<std::int64_t> sends_{0};

  // Failure state (set once per run by the first failure).
  std::atomic<int> failed_rank_{-1};
  std::exception_ptr root_cause_;

  // Per-rank accounting and fault state; each entry is written only by its
  // own rank thread during run() and read after the join. The pipeline owns
  // the injector and the reorder stash (runtime/transport.hpp).
  std::vector<rank_counters> counters_;
  std::vector<injection_pipeline> pipelines_;
};

}  // namespace sfp::runtime
