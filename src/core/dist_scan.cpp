#include "core/dist_scan.hpp"

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
      const std::vector<std::int64_t> part = comm.recv(src);  // lint: blocking-ok — peer_comm::recv ends in a world abort when a rank dies, or in the channel's recv_timeout, never an unbounded wait
      SFP_REQUIRE(part.size() == inout.size(),
                  "allreduce contributions must have equal length");
      for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += part[i];
    }
    for (int dst = 1; dst < p; ++dst) comm.send(dst, inout);
  } else {
    comm.send(0, inout);
    const std::vector<std::int64_t> total = comm.recv(0);  // lint: blocking-ok — peer_comm::recv ends in a world abort when a rank dies, or in the channel's recv_timeout, never an unbounded wait
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
      const std::vector<std::int64_t> part = comm.recv(src);  // lint: blocking-ok — peer_comm::recv ends in a world abort when a rank dies, or in the channel's recv_timeout, never an unbounded wait
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
  const std::vector<std::int64_t> offset = comm.recv(0);  // lint: blocking-ok — peer_comm::recv ends in a world abort when a rank dies, or in the channel's recv_timeout, never an unbounded wait
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
      const std::vector<std::int64_t> part = comm.recv(src);  // lint: blocking-ok — peer_comm::recv ends in a world abort when a rank dies, or in the channel's recv_timeout, never an unbounded wait
      all.insert(all.end(), part.begin(), part.end());
    }
    for (int dst = 1; dst < p; ++dst) comm.send(dst, all);
    return all;
  }
  comm.send(0, words);
  return comm.recv(0);  // lint: blocking-ok — peer_comm::recv ends in a world abort when a rank dies, or in the channel's recv_timeout, never an unbounded wait
}

}  // namespace sfp::core
