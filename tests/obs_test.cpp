// Tests for the observability layer: the metrics registry (sharding,
// histogram bucket invariants, reset-in-place), span tracing (per-thread
// buffers, retirement, overflow accounting), the exporters' golden
// structure (the Chrome-trace JSON and metrics JSON parse back and satisfy
// the format's invariants), end-to-end capture of an instrumented
// distributed run, and the disabled-path overhead bound.
//
// Labelled "runtime": the concurrency tests here are exactly what the tsan
// preset must see — rank threads recording spans and bumping shared
// counters while the main thread enables/collects.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/sfc_partition.hpp"
#include "io/json.hpp"
#include "io/trace_io.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/partitioner.hpp"
#include "obs/obs.hpp"
#include "runtime/reliable.hpp"
#include "runtime/world.hpp"
#include "seam/advection.hpp"
#include "seam/distributed.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;

// ---- metrics registry -------------------------------------------------------

TEST(Metrics, HandlesAreStableAndSharedByName) {
  obs::registry reg;
  obs::counter& a = reg.get_counter("x");
  obs::counter& b = reg.get_counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.inc();
  EXPECT_EQ(reg.get_counter("x").value(), 4);
  reg.reset();
  EXPECT_EQ(a.value(), 0);  // reset zeroes in place, handle still valid
  a.inc();
  EXPECT_EQ(reg.get_counter("x").value(), 1);
}

TEST(Metrics, SnapshotIsSortedAndComplete) {
  obs::registry reg;
  reg.get_counter("zeta").add(1);
  reg.get_counter("alpha").add(2);
  reg.get_gauge("mid").set(0.5);
  reg.get_histogram("h").observe(100);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1);
  EXPECT_EQ(snap.histograms[0].sum, 100);
}

TEST(Metrics, HistogramBucketBoundaries) {
  // bucket 0: v <= 0; bucket i >= 1: 2^(i-1) <= v < 2^i; top absorbs.
  EXPECT_EQ(obs::histogram::bucket_of(-5), 0);
  EXPECT_EQ(obs::histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::histogram::bucket_of(1023), 10);
  EXPECT_EQ(obs::histogram::bucket_of(1024), 11);
  EXPECT_EQ(obs::histogram::bucket_of(std::int64_t{1} << 62),
            obs::histogram::kBuckets - 1);
}

TEST(Metrics, HistogramBucketsSumToCount) {
  obs::histogram h;
  std::uint64_t v = 1;  // unsigned: the LCG wraps, signed overflow is UB
  for (int i = 0; i < 1000; ++i) {
    h.observe(static_cast<std::int64_t>(v % 4096) - 8);  // negatives..positives
    v = v * 131 + 7;
  }
  std::int64_t total = 0;
  for (int b = 0; b < obs::histogram::kBuckets; ++b) total += h.bucket(b);
  EXPECT_EQ(total, h.count());
  EXPECT_EQ(h.count(), 1000);
}

TEST(Metrics, ConcurrentUpdatesFromManyThreads) {
  // The tsan-facing contract: handle updates are data-race free, and no
  // update is lost. Half the threads hammer one shared counter, half their
  // own, all against one histogram.
  obs::registry reg;
  obs::counter& shared = reg.get_counter("shared");
  obs::histogram& hist = reg.get_histogram("hist");
  constexpr int kThreads = 8, kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::counter& own = reg.get_counter("own." + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        shared.inc();
        own.inc();
        hist.observe(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared.value(), kThreads * kIters);
  EXPECT_EQ(hist.count(), kThreads * kIters);
  std::int64_t total = 0;
  for (int b = 0; b < obs::histogram::kBuckets; ++b) total += hist.bucket(b);
  EXPECT_EQ(total, hist.count());
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(reg.get_counter("own." + std::to_string(t)).value(), kIters);
}

// ---- tracing ----------------------------------------------------------------

TEST(Trace, DisabledRecordsNothing) {
  obs::trace::disable();
  { SFP_TRACE_SCOPE("invisible"); }
  obs::session s(/*reset_metrics=*/false);
  const auto dump = s.finish();
  for (const auto& th : dump.threads) EXPECT_TRUE(th.events.empty());
}

TEST(Trace, SessionCapturesNestedScopes) {
  obs::session s(/*reset_metrics=*/false);
  obs::trace::set_thread_name("test-main");
  {
    SFP_TRACE_SCOPE_CAT("outer", "t");
    SFP_TRACE_SCOPE_CAT("inner", "t");
  }
  const auto dump = s.finish();
  const obs::thread_trace* mine = nullptr;
  for (const auto& th : dump.threads)
    if (th.name == "test-main") mine = &th;
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->events.size(), 2u);
  // Destruction order: inner closes (and records) first.
  EXPECT_STREQ(mine->events[0].name, "inner");
  EXPECT_STREQ(mine->events[1].name, "outer");
  // inner is contained in outer.
  const auto& in = mine->events[0];
  const auto& out = mine->events[1];
  EXPECT_GE(in.start_ns, out.start_ns);
  EXPECT_LE(in.start_ns + in.dur_ns, out.start_ns + out.dur_ns);
}

TEST(Trace, EnableClearsPreviousSession) {
  {
    obs::session s1(/*reset_metrics=*/false);
    SFP_TRACE_SCOPE("from-session-1");
  }
  obs::session s2(/*reset_metrics=*/false);
  const auto dump = s2.finish();
  for (const auto& th : dump.threads)
    for (const auto& ev : th.events)
      EXPECT_STRNE(ev.name, "from-session-1");
}

TEST(Trace, ExitedThreadsAreRetainedInCollection) {
  obs::session s(/*reset_metrics=*/false);
  std::thread([] {
    obs::trace::set_thread_name("ephemeral");
    SFP_TRACE_SCOPE("short-lived");
  }).join();
  const auto dump = s.finish();
  bool found = false;
  for (const auto& th : dump.threads)
    if (th.name == "ephemeral") {
      found = true;
      ASSERT_EQ(th.events.size(), 1u);
      EXPECT_STREQ(th.events[0].name, "short-lived");
    }
  EXPECT_TRUE(found);
}

TEST(Trace, OverflowDropsNewestAndCounts) {
  obs::session s(/*reset_metrics=*/false);
  constexpr int kWayTooMany = (1 << 16) + 500;
  for (int i = 0; i < kWayTooMany; ++i) { SFP_TRACE_SCOPE("spam"); }
  const auto dump = s.finish();
  std::int64_t events = 0, dropped = 0;
  for (const auto& th : dump.threads) {
    events += static_cast<std::int64_t>(th.events.size());
    dropped += th.dropped;
  }
  EXPECT_EQ(events + dropped, kWayTooMany);
  EXPECT_GT(dropped, 0);
}

TEST(Trace, TimedScopeFeedsHistogramEvenWhenDisabled) {
  obs::trace::disable();
  obs::registry::global().reset();
  { SFP_OBS_TIMED_SCOPE("obs_test.phase"); }
  const auto& h = obs::registry::global().get_histogram("obs_test.phase.us");
  EXPECT_EQ(h.count(), 1);
}

// ---- golden structure of the exporters --------------------------------------

// Run a small instrumented distributed workload under a session and return
// the collected dump (metrics land in the global registry).
obs::trace_dump traced_advection_run(int ne = 4, int nproc = 6,
                                     int nsteps = 2) {
  obs::session s;  // resets global metrics
  obs::trace::set_thread_name("main");
  const mesh::cubed_sphere mesh(ne);
  const auto curve = core::build_cube_curve(mesh);
  const auto part = core::sfc_partition(curve, nproc);
  (void)mgp::partition_graph(mesh.dual_graph(), nproc, {});
  seam::advection_model model(mesh, 4);
  model.set_field([](mesh::vec3 p) { return p.x * p.x + p.y; });
  seam::dist_stats stats;
  (void)seam::run_distributed(model, part, model.cfl_dt(0.3), nsteps, &stats);
  return s.finish();
}

TEST(TraceExport, ChromeTraceParsesAndEventsAreWellFormed) {
  const auto dump = traced_advection_run();
  std::ostringstream os;
  io::write_chrome_trace(os, dump);
  const auto doc = io::parse_json(os.str());

  ASSERT_TRUE(doc.is_object());
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());
  int complete = 0, metadata = 0;
  for (const auto& ev : events.array) {
    ASSERT_TRUE(ev.is_object());
    const std::string& ph = ev.at("ph").string;
    ASSERT_TRUE(ev.at("name").is_string());
    ASSERT_TRUE(ev.at("pid").is_number());
    ASSERT_TRUE(ev.at("tid").is_number());
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.at("name").string, "thread_name");
      continue;
    }
    // Every non-metadata event is a complete span with ts/dur.
    ASSERT_EQ(ph, "X") << "unexpected phase " << ph;
    ++complete;
    ASSERT_TRUE(ev.at("ts").is_number());
    ASSERT_TRUE(ev.at("dur").is_number());
    EXPECT_GE(ev.at("ts").number, 0.0);
    EXPECT_GE(ev.at("dur").number, 0.0);
    ASSERT_TRUE(ev.at("cat").is_string());
  }
  EXPECT_GT(complete, 0);
  EXPECT_GT(metadata, 0);  // main + every rank thread is named
}

TEST(TraceExport, SpansAreWellNestedPerThread) {
  // RAII scopes cannot produce partially-overlapping spans on one thread:
  // sorted by start (ties: longer first), each successive span is either
  // disjoint from or fully contained in the enclosing one.
  const auto dump = traced_advection_run();
  for (const auto& th : dump.threads) {
    auto evs = th.events;
    std::sort(evs.begin(), evs.end(),
              [](const obs::trace_event& a, const obs::trace_event& b) {
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.dur_ns > b.dur_ns;
              });
    std::vector<std::int64_t> stack;  // end timestamps of open spans
    for (const auto& ev : evs) {
      const std::int64_t end = ev.start_ns + ev.dur_ns;
      while (!stack.empty() && ev.start_ns >= stack.back()) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(end, stack.back())
            << "span " << ev.name << " on thread '" << th.name
            << "' partially overlaps its enclosing span";
      }
      stack.push_back(end);
    }
  }
}

TEST(TraceExport, MetricsJsonParsesAndHistogramsAreConsistent) {
  (void)traced_advection_run();
  const auto snap = obs::registry::global().snapshot();
  std::ostringstream os;
  io::write_metrics_json(os, snap);
  const auto doc = io::parse_json(os.str());

  ASSERT_TRUE(doc.is_object());
  const auto& counters = doc.at("counters");
  const auto& histograms = doc.at("histograms");
  ASSERT_TRUE(counters.is_object());
  ASSERT_TRUE(histograms.is_object());

  // Every histogram's bucket counts sum to its count.
  for (const auto& [name, h] : histograms.object) {
    const auto& buckets = h.at("buckets");
    ASSERT_TRUE(buckets.is_array()) << name;
    double total = 0;
    for (const auto& b : buckets.array) total += b.number;
    EXPECT_DOUBLE_EQ(total, h.at("count").number) << name;
  }

  // The instrumented layers all reported: per-peer halo volume and mgp
  // phase timings.
  const auto has_prefix = [](const std::map<std::string, io::json_value>& m,
                             const std::string& prefix) {
    for (const auto& [k, v] : m) {
      (void)v;
      if (k.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_prefix(counters.object, "seam.halo.doubles.rank"));
  EXPECT_TRUE(has_prefix(histograms.object, "mgp.coarsen"));
  EXPECT_TRUE(has_prefix(histograms.object, "mgp.refine"));
  EXPECT_TRUE(has_prefix(histograms.object, "runtime.recv.queue_wait"));
  EXPECT_GT(counters.at("runtime.messages_sent").number, 0.0);
  // Conservation: on a fault-free run every message the rank channels sent
  // was delivered exactly once.
  EXPECT_GT(counters.at("reliable.data_sent").number, 0.0);
  EXPECT_DOUBLE_EQ(counters.at("reliable.data_sent").number,
                   counters.at("reliable.data_received").number);
}

TEST(TraceExport, CounterEventsCarryPerKindInjectedFaultMetrics) {
  // A chaotic resilient run under a session, exported with its metrics
  // snapshot: the per-kind fault-injection and reliable-channel totals must
  // appear as Chrome counter ("ph":"C") events so they render as counter
  // tracks next to the timeline.
  obs::session s;
  obs::trace::set_thread_name("main");
  const mesh::cubed_sphere mesh(2);
  const auto curve = core::build_cube_curve(mesh);
  const auto part = core::sfc_partition(curve, 4);
  seam::advection_model model(mesh, 4);
  model.set_field([](mesh::vec3 p) { return p.x * p.x + p.y; });
  runtime::resilience_options ropts;
  ropts.max_recoveries = 1;
  ropts.faults.seed = 11;
  ropts.reliable.recv_timeout = std::chrono::milliseconds(8000);
  auto& mf = ropts.faults.message_faults.emplace_back();
  mf.drop_probability = 0.2;
  mf.corrupt_probability = 0.2;
  mf.duplicate_probability = 0.2;
  (void)seam::run_distributed_resilient(model, curve, part, model.cfl_dt(0.3),
                                        2, ropts);
  const auto dump = s.finish();
  const auto snap = obs::registry::global().snapshot();

  std::ostringstream os;
  io::write_chrome_trace(os, dump, &snap);
  const auto doc = io::parse_json(os.str());
  std::map<std::string, double> tracks;
  for (const auto& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").string != "C") continue;
    ASSERT_TRUE(ev.at("args").is_object());
    const auto& value = ev.at("args").at("value");
    ASSERT_TRUE(value.is_number());
    EXPECT_GT(value.number, 0.0);  // zero counters are suppressed
    tracks[ev.at("name").string] = value.number;
  }
  // Split per-kind: each injected fault kind gets its own track, and the
  // reliable channel's healing shows up alongside.
  EXPECT_GT(tracks["runtime.injected.drops"], 0.0);
  EXPECT_GT(tracks["runtime.injected.corruptions"], 0.0);
  EXPECT_GT(tracks["runtime.injected.duplicates"], 0.0);
  EXPECT_GT(tracks["reliable.retransmits"], 0.0);
  EXPECT_GT(tracks["reliable.corruption_detected"], 0.0);
  EXPECT_EQ(tracks.count("runtime.injected.kills"), 0u);  // zero: no track

  // Without a snapshot the export carries no counter events (the existing
  // well-formedness test relies on that).
  std::ostringstream bare;
  io::write_chrome_trace(bare, dump);
  EXPECT_EQ(bare.str().find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceExport, RankThreadsAreNamedAndCarrySeamSpans) {
  const auto dump = traced_advection_run(4, 6, 2);
  int rank_threads = 0;
  for (const auto& th : dump.threads) {
    if (th.name.rfind("rank ", 0) != 0) continue;
    ++rank_threads;
    bool has_step = false, has_exchange = false;
    for (const auto& ev : th.events) {
      if (std::string_view(ev.name) == "seam.step") has_step = true;
      if (std::string_view(ev.name) == "seam.exchange") has_exchange = true;
    }
    EXPECT_TRUE(has_step) << th.name;
    EXPECT_TRUE(has_exchange) << th.name;
  }
  EXPECT_EQ(rank_threads, 6);
}

// ---- tracing under the virtual-rank runtime (tsan target) -------------------

TEST(TraceRuntime, ConcurrentRankRecordingIsClean) {
  // Many ranks record spans and metrics concurrently while the main thread
  // owns the session; collect() runs after the world joined. This is the
  // test the tsan preset exercises hardest.
  obs::session s;
  runtime::world w(8);
  w.run([](runtime::transport& t) {
    runtime::reliable_channel channel(t);
    for (int i = 0; i < 50; ++i) {
      SFP_TRACE_SCOPE_CAT("work", "test");
      obs::registry::global()
          .get_counter("obs_test.rank." + std::to_string(t.rank()))
          .inc();
      channel.fence();
    }
  });
  const auto dump = s.finish();
  std::int64_t recorded = 0, dropped = 0;
  for (const auto& th : dump.threads) {
    for (const auto& ev : th.events)
      if (std::string_view(ev.name) == "work") ++recorded;
    dropped += th.dropped;
  }
  EXPECT_EQ(recorded + dropped, 8 * 50);
  for (int r = 0; r < 8; ++r)
    EXPECT_EQ(obs::registry::global()
                  .get_counter("obs_test.rank." + std::to_string(r))
                  .value(),
              50);
}

// ---- overhead ---------------------------------------------------------------

TEST(Overhead, DisabledInstrumentationStaysWithinBudgetOfHotLoop) {
  // The compiled-in, disabled macro path (one relaxed load + branch per
  // scope, one relaxed add per counter) must not distort a hot loop by
  // more than 5%. sfc_partition already carries exactly one trace scope
  // and one counter; time the loop as-is, then with that instrumentation
  // *doubled* (one extra disabled scope + counter add per call). If
  // doubling the instrumentation stays within the 5% budget (plus an
  // absolute epsilon against microsecond scheduler jitter), the single
  // copy the library ships is comfortably below it. Min-of-N timing cuts
  // the noise that would otherwise make a ratio test flaky.
  obs::trace::disable();
  const mesh::cubed_sphere m(8);
  const auto curve = core::build_cube_curve(m);
  obs::counter& extra = obs::registry::global().get_counter("obs_test.extra");

  const auto time_min_of = [](int reps, const auto& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best,
                      std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };

  constexpr int kInner = 200;
  (void)core::sfc_partition(curve, 96);  // warm caches + static handles

  const double baseline = time_min_of(9, [&] {
    for (int i = 0; i < kInner; ++i)
      (void)core::sfc_partition(curve, 96);
  });
  const double doubled = time_min_of(9, [&] {
    for (int i = 0; i < kInner; ++i) {
      SFP_TRACE_SCOPE_CAT("obs_test.extra", "test");
      extra.inc();
      (void)core::sfc_partition(curve, 96);
    }
  });
  EXPECT_LT(doubled, baseline * 1.05 + 2e-3)
      << "doubled-instrumentation=" << doubled << "s baseline=" << baseline
      << "s";
}

}  // namespace
