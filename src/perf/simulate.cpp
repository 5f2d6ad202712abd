#include "perf/simulate.hpp"

#include <algorithm>
#include <vector>

#include "partition/metrics.hpp"
#include "util/contract.hpp"

namespace sfp::perf {

step_time simulate_step(const graph::csr& dual,
                        const partition::partition& part,
                        const machine_model& machine,
                        const seam_workload& workload) {
  partition::validate(part, dual);
  SFP_REQUIRE(machine.sustained_flops > 0, "machine must compute");
  SFP_REQUIRE(machine.bandwidth_bps > 0, "machine must communicate");

  const auto sizes = partition::part_sizes(part);
  const auto pattern = partition::comm_pattern(dual, part);
  const double flops_elem = workload.flops_per_element();
  const double bytes_point = workload.bytes_per_point();

  // Per-SMP-node inter-node traffic (for the shared-adapter term).
  const int num_nodes =
      (part.num_parts + machine.ranks_per_node - 1) / machine.ranks_per_node;
  std::vector<double> node_inter_bytes(static_cast<std::size_t>(num_nodes), 0.0);
  for (int p = 0; p < part.num_parts; ++p) {
    for (const auto& [peer, points] : pattern[static_cast<std::size_t>(p)]) {
      if (machine.node_of(p) != machine.node_of(peer))
        node_inter_bytes[static_cast<std::size_t>(machine.node_of(p))] +=
            points * bytes_point;
    }
  }

  step_time out;
  double sum = 0;
  for (int p = 0; p < part.num_parts; ++p) {
    const double compute =
        static_cast<double>(sizes[static_cast<std::size_t>(p)]) * flops_elem /
        machine.sustained_flops;
    double comm = 0;
    for (const auto& [peer, points] : pattern[static_cast<std::size_t>(p)]) {
      const bool same_node = machine.node_of(p) == machine.node_of(peer);
      const double latency =
          same_node ? machine.latency_intra_s : machine.latency_s;
      const double bandwidth =
          same_node ? machine.bandwidth_intra_bps : machine.bandwidth_bps;
      comm += latency + points * bytes_point / bandwidth;
    }
    // The node's aggregate inter-node traffic cannot drain faster than the
    // shared adapter; the rank waits for whichever is slower.
    const double adapter =
        node_inter_bytes[static_cast<std::size_t>(machine.node_of(p))] /
        machine.node_adapter_bandwidth_bps;
    comm = std::max(comm, adapter);
    // Overlap: the hidden share of communication runs concurrently with
    // compute; the exposed share serializes.
    const double hidden = machine.comm_overlap * comm;
    const double exposed = comm - hidden;
    const double total = std::max(compute, hidden) + exposed;
    sum += total;
    if (total > out.total_s) {
      out.total_s = total;
      out.compute_s = compute;
      out.comm_s = comm;
      out.critical_rank = p;
    }
  }
  out.avg_rank_s = sum / part.num_parts;
  return out;
}

double sustained_gflops(int num_elements, const seam_workload& workload,
                        const step_time& t) {
  SFP_REQUIRE(t.total_s > 0, "step time must be positive");
  return static_cast<double>(num_elements) * workload.flops_per_element() /
         t.total_s / 1e9;
}

step_time serial_step(int num_elements, const machine_model& machine,
                      const seam_workload& workload) {
  SFP_REQUIRE(num_elements > 0, "need at least one element");
  step_time out;
  out.compute_s = static_cast<double>(num_elements) *
                  workload.flops_per_element() / machine.sustained_flops;
  out.comm_s = 0.0;
  out.total_s = out.compute_s;
  out.critical_rank = 0;
  out.avg_rank_s = out.total_s;
  return out;
}

double speedup(const step_time& serial, const step_time& parallel) {
  SFP_REQUIRE(parallel.total_s > 0, "parallel step time must be positive");
  return serial.total_s / parallel.total_s;
}

}  // namespace sfp::perf
