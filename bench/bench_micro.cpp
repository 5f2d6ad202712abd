// Microbenchmarks (google-benchmark): raw speed of the library's hot paths —
// curve generation, cube stitching, dual-graph construction, dof assembly,
// partitioners, metrics, and the spectral-element kernel. These are
// host-performance numbers, not paper reproductions.
//
// Besides the console report, every run is teed into BENCH_micro.json
// (name / iterations / adjusted real and cpu time / user counters) so the
// numbers are machine-comparable across commits.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include "io/json.hpp"

#include "core/cube_curve.hpp"
#include "core/dist_scan.hpp"
#include "core/parallel_partition.hpp"
#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/partitioner.hpp"
#include "obs/obs.hpp"
#include "partition/metrics.hpp"
#include "seam/advection.hpp"
#include "seam/assembly.hpp"
#include "sfc/curve.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfp;

void BM_HilbertCurve(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfc::hilbert_curve(level));
  }
  state.SetItemsProcessed(state.iterations() * (1LL << (2 * state.range(0))));
}
BENCHMARK(BM_HilbertCurve)->Arg(3)->Arg(5)->Arg(7);

void BM_PeanoCurve(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfc::peano_curve(level));
  }
}
BENCHMARK(BM_PeanoCurve)->Arg(2)->Arg(3)->Arg(4);

// The SFC key of one element from the shared spec (the distributed
// partitioner's phase 1), element by element over the whole cube; the
// sizes span the dist-plan workload's Ne.
void BM_CurvePositionOf(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  const core::cube_curve_spec spec = core::build_cube_curve_spec(m);
  int e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::curve_position_of(spec, m, e));
    if (++e == m.num_elements()) e = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CurvePositionOf)->Arg(96)->Arg(256);

// Its inverse: the element at one curve position (how a rank of the
// distributed partitioner enumerates its range), position by position
// over the whole cube.
void BM_ElementAt(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  const core::cube_curve_spec spec = core::build_cube_curve_spec(m);
  std::int64_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::element_at(spec, m, pos));
    if (++pos == m.num_elements()) pos = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElementAt)->Arg(96)->Arg(256);

void BM_CubeStitch(benchmark::State& state) {
  const int ne = static_cast<int>(state.range(0));
  const mesh::cubed_sphere m(ne);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_cube_curve(m));
  }
}
BENCHMARK(BM_CubeStitch)->Arg(8)->Arg(16)->Arg(24);

// The mesh itself holds only (Ne, projection); its topology costs show up
// in the layers built on it. Sizes span the perfbench workloads' Ne.
void BM_DualGraph(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.dual_graph());
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_DualGraph)->Arg(32)->Arg(96)->Arg(256);

void BM_AssemblyBuild(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const seam::assembly dofs(m, 4);
    benchmark::DoNotOptimize(dofs.num_dofs());
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_AssemblyBuild)->Arg(32)->Arg(96)->Arg(256);

void BM_SfcPartition(benchmark::State& state) {
  const mesh::cubed_sphere m(16);
  const auto curve = core::build_cube_curve(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::sfc_partition(curve, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_SfcPartition)->Arg(96)->Arg(768);

// The distributed partitioner's splitter walk alone, on one rank that owns
// the whole curve: the dist-plan workload's K = 393,216 (Ne = 256)
// positions with its heavy-tail weights (1-9, times 100 with probability
// 1/16), at 8,192 and at 256 elements per part (dist-plan runs the
// second).
void BM_FindRawSplitters(benchmark::State& state) {
  constexpr std::int64_t k = 6LL * 256 * 256;
  std::vector<std::int64_t> keys(static_cast<std::size_t>(k));
  std::iota(keys.begin(), keys.end(), std::int64_t{0});
  std::vector<graph::weight> weights(keys.size());
  sfp::rng gen(1);
  for (auto& w : weights) {
    w = 1 + static_cast<graph::weight>(gen.below(9));
    if (gen.below(16) == 0) w *= 100;
  }
  const graph::weight total =
      std::accumulate(weights.begin(), weights.end(), graph::weight{0});
  const int nparts = static_cast<int>(state.range(0));
  core::solo_comm solo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::find_raw_splitters(solo, keys, weights, k, total, nparts));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_FindRawSplitters)->Arg(48)->Arg(1536);

void BM_MgpKway(benchmark::State& state) {
  const mesh::cubed_sphere m(8);
  const auto dual = m.dual_graph();
  mgp::options opt;
  opt.algo = mgp::method::kway;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mgp::partition_graph(dual, static_cast<int>(state.range(0)), opt));
  }
}
BENCHMARK(BM_MgpKway)->Arg(16)->Arg(96)->Arg(192);

void BM_MgpRecursiveBisection(benchmark::State& state) {
  const mesh::cubed_sphere m(8);
  const auto dual = m.dual_graph();
  mgp::options opt;
  opt.algo = mgp::method::recursive_bisection;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mgp::partition_graph(dual, static_cast<int>(state.range(0)), opt));
  }
}
BENCHMARK(BM_MgpRecursiveBisection)->Arg(16)->Arg(96)->Arg(192);

// Args: (Ne, nparts). Ne = 96 at 6,912 parts is the perfbench serial-plan
// shape (8 elements per part).
void BM_Metrics(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  const auto dual = m.dual_graph();
  const auto p = core::sfc_partition(m, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::compute_metrics(dual, p));
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_Metrics)->Args({16, 768})->Args({96, 6912});

// The per-peer volumes the machine model reads (perf::simulate_step).
void BM_CommPattern(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  const auto dual = m.dual_graph();
  const auto p = core::sfc_partition(m, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::comm_pattern(dual, p));
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_CommPattern)->Args({16, 768})->Args({96, 6912});

// Observability overhead: the disabled-scope cost is what every
// instrumented hot path pays when no `sfcpart trace` session is active
// (one relaxed load + branch), and the enabled-scope cost bounds the
// distortion a live session adds to the timeline it records.
void BM_ObsScopeDisabled(benchmark::State& state) {
  obs::trace::disable();
  for (auto _ : state) {
    SFP_TRACE_SCOPE_CAT("bench.scope", "bench");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsScopeDisabled);

void BM_ObsScopeEnabled(benchmark::State& state) {
  obs::trace::enable();
  for (auto _ : state) {
    SFP_TRACE_SCOPE_CAT("bench.scope", "bench");
    benchmark::ClobberMemory();
  }
  obs::trace::disable();
}
BENCHMARK(BM_ObsScopeEnabled);

void BM_ObsCounter(benchmark::State& state) {
  obs::counter& c = obs::registry::global().get_counter("bench.counter");
  for (auto _ : state) c.inc();
}
BENCHMARK(BM_ObsCounter);

void BM_ObsHistogram(benchmark::State& state) {
  obs::histogram& h = obs::registry::global().get_histogram("bench.hist");
  std::int64_t v = 1;
  for (auto _ : state) {
    h.observe(v);
    v = (v * 31) % 100000 + 1;
  }
}
BENCHMARK(BM_ObsHistogram);

// The real overhead criterion: an instrumented library hot path
// (sfc_partition carries a trace scope + counter) with tracing disabled,
// comparable against BM_SfcPartition history.
void BM_SfcPartitionObsDisabled(benchmark::State& state) {
  obs::trace::disable();
  const mesh::cubed_sphere m(16);
  const auto curve = core::build_cube_curve(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::sfc_partition(curve, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_SfcPartitionObsDisabled)->Arg(768);

void BM_SeamStep(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  seam::advection_model model(m, 8);
  model.set_field([](mesh::vec3 p) { return p.x; });
  const double dt = model.cfl_dt(0.3);
  for (auto _ : state) {
    model.step(dt);
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_SeamStep)->Arg(4)->Arg(8);

// Console output as usual, plus one JSON row per finished run.
class json_tee_reporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred) continue;
      io::json_value row = io::json_object();
      row.object["name"] = io::json_string(run.benchmark_name());
      row.object["iterations"] =
          io::json_number(static_cast<double>(run.iterations));
      row.object["real_time"] = io::json_number(run.GetAdjustedRealTime());
      row.object["cpu_time"] = io::json_number(run.GetAdjustedCPUTime());
      row.object["time_unit"] =
          io::json_string(benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [counter_name, counter] : run.counters)
        row.object[counter_name] =
            io::json_number(static_cast<double>(counter.value));
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<io::json_value> take_rows() { return std::move(rows_); }

 private:
  std::vector<io::json_value> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  json_tee_reporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  io::json_value doc = io::json_object();
  doc.object["bench"] = io::json_string("micro");
  io::json_value results = io::json_array();
  results.array = reporter.take_rows();
  const std::size_t nrows = results.array.size();
  doc.object["results"] = std::move(results);
  io::write_json_file(doc, "BENCH_micro.json");
  std::printf("wrote BENCH_micro.json (%zu runs)\n", nrows);
  return 0;
}
