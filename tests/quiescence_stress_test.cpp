// Stress test for the fabric's quiescence detector: fault-free runs of
// both rank programs at up to four ranks per core (at most 32 rank
// threads) must never look faulty. A busy or descheduled rank is not
// blocked, so the world never goes quiescent, and nothing is resent or
// restarted, however oversubscribed the host is. CI reruns it under
// `ctest -L runtime --repeat until-fail:3` with several jobs per core.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "obs/metrics.hpp"
#include "runtime/partition_fabric.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"

namespace {

using namespace sfp;

/// min(4 x hardware threads, 32), and at least 2.
int stress_ranks() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(4 * hw, 2, 32);
}

std::int64_t retransmits_published() {
  return obs::registry::global().get_counter("reliable.retransmits").value();
}

TEST(QuiescenceStress, FaultFreePartitionNeverRetransmits) {
  const int nranks = stress_ranks();
  const mesh::cubed_sphere mesh(4);  // K = 96: every rank owns a range
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const partition::partition serial = core::sfc_partition(curve, 40);
  for (int run = 0; run < 3; ++run) {
    const runtime::parallel_partition_report report =
        runtime::run_parallel_partition(mesh, core::spec_of(curve), 40, {},
                                        nranks);
    ASSERT_FALSE(report.aborted);
    EXPECT_EQ(report.reliable.retransmits, 0) << nranks << " ranks";
    EXPECT_EQ(report.recoveries, 0);
    EXPECT_EQ(report.plan.part_of, serial.part_of);
  }
}

TEST(QuiescenceStress, FaultFreeSeamRunNeverRetransmits) {
  const int nranks = stress_ranks();
  const mesh::cubed_sphere mesh(4);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const partition::partition part = core::sfc_partition(curve, nranks);
  seam::advection_model model(mesh, 4);
  model.set_field([](mesh::vec3 p) { return p.x + 0.5 * p.y * p.z; });
  const double dt = model.cfl_dt(0.3);

  const std::int64_t before = retransmits_published();
  const std::vector<double> plain = seam::run_distributed(model, part, dt, 3);
  EXPECT_EQ(retransmits_published(), before) << nranks << " ranks";

  // The resilient runner fences every step to seal its checkpoints: more
  // settles, still nothing resent and nothing restarted.
  seam::recovery_report report;
  const std::vector<double> resilient = seam::run_distributed_resilient(
      model, curve, part, dt, 3, {}, &report);
  EXPECT_EQ(report.reliable.retransmits, 0) << nranks << " ranks";
  EXPECT_EQ(report.recoveries, 0);
  EXPECT_EQ(resilient, plain);
}

}  // namespace
