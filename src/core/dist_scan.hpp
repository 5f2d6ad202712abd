#pragma once
// Distributed-scan primitive: the tiny message-passing surface and the
// integer-exact collectives the parallel partitioner is written against.
//
// Layering: core sits below runtime, so the distributed algorithms cannot
// see runtime::transport. Instead core defines this minimal peer interface
// (dependency inversion) and runtime provides the adapter that carries it
// over a reliable channel on the virtual-rank fabric without the algorithm
// changing a line (runtime/partition_fabric.hpp).
//
// All collectives are deterministic and integer-exact: payloads are int64
// words, reductions are rank-ordered sums gathered at rank 0 and broadcast
// back, so every rank computes bit-identical results regardless of thread
// scheduling. That determinism is what lets the parallel slicer
// promise bit-identical plans to the serial one.

#include <cstdint>
#include <span>
#include <vector>

namespace sfp::core {

/// One rank's view of the peer group: ordered, reliable, blocking delivery
/// of int64 records between ranks. Implementations heal transport faults
/// underneath (see runtime/reliable.hpp); by the time a message surfaces
/// here it is exactly-once and in order per (src, dst) stream.
class peer_comm {
 public:
  virtual ~peer_comm();
  peer_comm(const peer_comm&) = delete;
  peer_comm& operator=(const peer_comm&) = delete;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Queue `words` for delivery to `dst`. Asynchronous; the matching recv
  /// on the peer returns exactly this payload.
  virtual void send(int dst, std::span<const std::int64_t> words) = 0;

  /// Block until the next message from `src` arrives and return it.
  /// Implementations bound the wait (a fabric abort, a spent retransmit
  /// budget or a deadlock error) and throw rather than hang; the caller
  /// restarts the whole collective.
  virtual std::vector<std::int64_t> recv(int src) = 0;

 protected:
  peer_comm() = default;
};

/// The one-rank group: rank 0 of 1, no peers. Lets every distributed
/// algorithm in this module run serially (unit tests, P=1 bench points)
/// with the identical code path. send/recv are contract errors.
class solo_comm final : public peer_comm {
 public:
  solo_comm() = default;
  int rank() const override { return 0; }
  int size() const override { return 1; }
  void send(int dst, std::span<const std::int64_t> words) override;
  std::vector<std::int64_t> recv(int src) override;
};

/// Sum of every rank's `value`, identical on all ranks. Rank-ordered
/// gather + broadcast: exact for int64 (associativity is free).
std::int64_t allreduce_sum(peer_comm& comm, std::int64_t value);

/// Elementwise-summed vector reduction, in place, identical on all ranks.
/// Every rank must pass the same number of words.
void allreduce_sum(peer_comm& comm, std::span<std::int64_t> inout);

/// Exclusive weighted scan across ranks: rank r receives the sum of every
/// lower rank's `value` (rank 0 receives 0) — the prefix offset a rank's
/// local weight total occupies in the global cumulative order.
std::int64_t exscan_sum(peer_comm& comm, std::int64_t value);

/// Concatenation of every rank's `words` in rank order, identical on all
/// ranks. Ranks may contribute different lengths, including zero — the
/// empty-rank case (K < P) contributes nothing and still participates.
std::vector<std::int64_t> allgather_concat(peer_comm& comm,
                                           std::span<const std::int64_t> words);

}  // namespace sfp::core
