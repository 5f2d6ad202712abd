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
#include <type_traits>
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
#include "seam/distributed.hpp"
#include "seam/exchange.hpp"
#include "seam/gll.hpp"
#include "seam/shallow_water.hpp"
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

// The element kernels alone: one tendency pass over every element of an
// Ne x Ne cube at np GLL points, so 1e9 / items_per_second is ns/element.
void BM_AdvectionTendency(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  seam::advection_model model(m, static_cast<int>(state.range(1)));
  model.set_field([](mesh::vec3 p) { return p.x * p.y + p.z; });
  std::vector<double> out(model.field().size());
  for (auto _ : state) {
    model.tendency(model.field(), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_AdvectionTendency)->Args({32, 4})->Args({32, 8});

// One fused SSP-RK3 stage pass over every element (the middle stage: it
// reads q and the stage source, and writes a third field): the tendency
// and the stage value in one kernel pass, as each stage of a step runs
// it. Compare with BM_AdvectionTendency, which stores the tendency alone.
void BM_AdvectionStage(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  seam::advection_model model(m, static_cast<int>(state.range(1)));
  model.set_field([](mesh::vec3 p) { return p.x * p.y + p.z; });
  const double h = model.cfl_dt(0.3);
  const std::vector<double> src(model.field().begin(), model.field().end());
  std::vector<double> dst(model.field().size());
  for (auto _ : state) {
    model.stage_pass(1, h, model.field(), src, dst);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_AdvectionStage)->Args({32, 4})->Args({32, 8});

void BM_SweRhs(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  seam::shallow_water_model model(m, static_cast<int>(state.range(1)));
  model.set_williamson2(0.5, 2.0);
  std::vector<int> elems(static_cast<std::size_t>(m.num_elements()));
  std::iota(elems.begin(), elems.end(), 0);
  const std::size_t n = model.depth().size();
  std::vector<double> rh(n), rx(n), ry(n), rz(n);
  for (auto _ : state) {
    model.rhs_elements(model.depth(), model.velocity_x(), model.velocity_y(),
                       model.velocity_z(), rh, rx, ry, rz, elems);
    benchmark::DoNotOptimize(rh.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_SweRhs)->Args({32, 4})->Args({32, 8});

// The kernel rows above run at the CPU's native lane width. These run the
// same element passes' kernel calls at each width named by the last
// argument (2 = SSE2 pairs, 4 = AVX2 quads; skipped on a CPU without AVX2),
// so both widths stay on the ledger on any host: per element, one
// gll_advection (the advection pass), or the two gll_derivatives and three
// gll_advection calls of one shallow-water element.
template <typename Pass>
void run_kernel_rows(benchmark::State& state, int ne, int np,
                     const double* written, Pass&& pass) {
  const auto width = static_cast<seam::gll_width>(state.range(2));
  if (width == seam::gll_width::avx2 &&
      seam::native_gll_width() != seam::gll_width::avx2) {
    state.SkipWithError("this CPU does not run AVX2");
    return;
  }
  const std::size_t nelem = static_cast<std::size_t>(6 * ne * ne);
  seam::with_np(np, [&]<int NP>(std::integral_constant<int, NP>) {
    constexpr std::size_t n = NP * NP;
    for (auto _ : state) {
      for (std::size_t e = 0; e < nelem; ++e)
        pass.template operator()<NP>(width, e * n);
      benchmark::DoNotOptimize(written);
      benchmark::ClobberMemory();
    }
  });
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nelem));
}

void BM_AdvectionKernelAtWidth(benchmark::State& state) {
  const int ne = static_cast<int>(state.range(0));
  const mesh::cubed_sphere m(ne);
  seam::advection_model model(m, static_cast<int>(state.range(1)));
  model.set_field([](mesh::vec3 p) { return p.x * p.y + p.z; });
  const seam::node_geometry& g = model.geometry();
  const double* q = model.field().data();
  std::vector<double> out(model.field().size());
  run_kernel_rows(state, ne, model.rule().np(), out.data(),
                  [&]<int NP>(seam::gll_width w, std::size_t at) {
                    seam::gll_advection_at<NP>(w, model.rule(), q + at,
                                               g.v_xi.data() + at,
                                               g.v_eta.data() + at,
                                               out.data() + at);
                  });
}
BENCHMARK(BM_AdvectionKernelAtWidth)
    ->Args({32, 4, 2})
    ->Args({32, 4, 4})
    ->Args({32, 8, 2})
    ->Args({32, 8, 4});

void BM_SweKernelsAtWidth(benchmark::State& state) {
  const int ne = static_cast<int>(state.range(0));
  const mesh::cubed_sphere m(ne);
  seam::shallow_water_model model(m, static_cast<int>(state.range(1)));
  model.set_williamson2(0.5, 2.0);
  const double* h = model.depth().data();
  const double* ux = model.velocity_x().data();
  const double* uy = model.velocity_y().data();
  const double* uz = model.velocity_z().data();
  const std::size_t n = model.depth().size();
  std::vector<double> d1(n), d2(n), d3(n), d4(n), ax(n), ay(n), az(n);
  run_kernel_rows(state, ne, model.rule().np(), d1.data(),
                  [&]<int NP>(seam::gll_width w, std::size_t at) {
                    const seam::gll_rule& r = model.rule();
                    seam::gll_derivatives_at<NP>(w, r, ux + at, uy + at,
                                                 d1.data() + at,
                                                 d2.data() + at);
                    seam::gll_derivatives_at<NP>(w, r, h + at, h + at,
                                                 d3.data() + at,
                                                 d4.data() + at);
                    seam::gll_advection_at<NP>(w, r, ux + at, uy + at,
                                               uz + at, ax.data() + at);
                    seam::gll_advection_at<NP>(w, r, uy + at, uy + at,
                                               uz + at, ay.data() + at);
                    seam::gll_advection_at<NP>(w, r, uz + at, uy + at,
                                               uz + at, az.data() + at);
                  });
}
BENCHMARK(BM_SweKernelsAtWidth)
    ->Args({32, 4, 2})
    ->Args({32, 4, 4})
    ->Args({32, 8, 2})
    ->Args({32, 8, 4});

// One rank's halo plan, as its rank body builds it: rank 0 of a 3-part SFC
// plan of an Ne x Ne cube at np GLL points. Items are the rank's owned
// elements, so 1e9 / items_per_second is ns per owned element.
void BM_RankExchangePlan(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  const seam::assembly dofs(m, static_cast<int>(state.range(1)));
  const partition::partition part = core::sfc_partition(m, 3);
  std::int64_t owned = 0;
  for (auto _ : state) {
    const seam::rank_exchange_plan rp =
        seam::rank_exchange_plan::build(dofs, part, 0);
    owned = static_cast<std::int64_t>(rp.owned.size());
    benchmark::DoNotOptimize(rp.boundary_dof.data());
  }
  state.SetItemsProcessed(state.iterations() * owned);
}
BENCHMARK(BM_RankExchangePlan)->Args({32, 8});

// What a distributed SEAM call costs before its first step: run_distributed
// with no steps on a 3-part SFC plan (rank threads, halo plans, the
// gather and scatter of the field, the closing fence).
void BM_SeamDriverFixedCost(benchmark::State& state) {
  const mesh::cubed_sphere m(static_cast<int>(state.range(0)));
  seam::advection_model model(m, static_cast<int>(state.range(1)));
  model.set_field([](mesh::vec3 p) { return p.x; });
  const partition::partition part = core::sfc_partition(m, 3);
  const double dt = model.cfl_dt(0.3);
  for (auto _ : state) {
    std::vector<double> out = seam::run_distributed(model, part, dt, 0);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SeamDriverFixedCost)
    ->Args({32, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

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
