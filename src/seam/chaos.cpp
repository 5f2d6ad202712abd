#include "seam/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "core/parallel_partition.hpp"
#include "core/sfc_partition.hpp"
#include "seam/exchange.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace sfp::seam {

const char* to_string(chaos_fault::kind k) {
  switch (k) {
    case chaos_fault::kind::drop: return "drop";
    case chaos_fault::kind::duplicate: return "duplicate";
    case chaos_fault::kind::corrupt: return "corrupt";
    case chaos_fault::kind::truncate: return "truncate";
    case chaos_fault::kind::reorder: return "reorder";
  }
  return "?";
}

namespace {

chaos_fault::kind kind_from_string(const std::string& name) {
  for (const auto k :
       {chaos_fault::kind::drop, chaos_fault::kind::duplicate,
        chaos_fault::kind::corrupt, chaos_fault::kind::truncate,
        chaos_fault::kind::reorder}) {
    if (name == to_string(k)) return k;
  }
  SFP_REQUIRE(false, "chaos schedule: unknown fault kind '" + name + "'");
  std::abort();  // unreachable: SFP_REQUIRE throws
}

/// Judges `t` by the kill contract both harnesses share. An aborted run
/// passes only when the schedule can starve the ladder: more distinct
/// killable ranks than the budget, or every rank killable (kills of
/// out-of-range ranks never fire, repeated kills of one rank never stack).
/// A completed run must have spent a recovery on any fired kill and lost
/// exactly the ranks whose kill fired. Returns true when this settles the
/// verdict (the run aborted, or broke the contract); false for a completed
/// run that kept it, whose result the harness checks next.
bool settled_by_kill_contract(const chaos_schedule& schedule, int nranks,
                              chaos_trial& t) {
  std::ostringstream os;
  if (t.aborted) {
    std::set<int> killable;
    for (const chaos_kill& k : schedule.kills)
      if (k.rank >= 0 && k.rank < nranks) killable.insert(k.rank);
    const auto max_deaths = static_cast<int>(killable.size());
    if (max_deaths <= chaos_max_recoveries && max_deaths < nranks)
      os << "aborted though the schedule cannot exhaust the ladder";
  } else {
    std::vector<int> fired;
    for (std::size_t r = 0; r < t.per_rank_counters.size(); ++r)
      if (t.per_rank_counters[r].injected_kills > 0)
        fired.push_back(static_cast<int>(r));
    if (!fired.empty() && t.recoveries == 0) {
      os << "kills fired (" << t.counters.injected_kills
         << ") yet the run records no recovery";
    } else if (t.lost_ranks != fired) {
      os << "lost " << t.lost_ranks.size() << " rank(s) but " << fired.size()
         << " kill(s) fired on distinct ranks (recoveries=" << t.recoveries
         << ")";
    }
  }
  t.failure = os.str();
  if (!t.aborted && t.failure.empty()) return false;
  t.passed = t.failure.empty();
  return true;
}

}  // namespace

runtime::reliable_options chaos_reliable_defaults() {
  runtime::reliable_options r;
  // Retransmits must come from the schedule, not from scheduler jitter on
  // a loaded machine: a spurious retransmit is an extra matching send that
  // would shift which message a fault's `nth` lands on between runs.
  r.retransmit_timeout = std::chrono::microseconds(5000);
  r.max_backoff = std::chrono::microseconds(20000);
  r.recv_timeout = std::chrono::milliseconds(8000);
  return r;
}

chaos_schedule make_chaos_schedule(std::uint64_t seed, int nranks,
                                   int nfaults, std::int64_t max_nth) {
  SFP_REQUIRE(nranks >= 2, "chaos schedules need at least two ranks");
  SFP_REQUIRE(nfaults >= 0, "fault count must be non-negative");
  SFP_REQUIRE(max_nth >= 1, "max_nth must be >= 1");
  chaos_schedule schedule;
  schedule.seed = seed;
  // Decorrelate the schedule shape from the positional stream the injector
  // derives from the same seed.
  rng r(seed ^ 0xc4a7a511c4a7a511ull);
  schedule.faults.reserve(static_cast<std::size_t>(nfaults));
  for (int i = 0; i < nfaults; ++i) {
    chaos_fault f;
    f.what = static_cast<chaos_fault::kind>(r.below(5));
    f.src = static_cast<int>(r.below(static_cast<std::uint64_t>(nranks)));
    f.dst = static_cast<int>(r.below(static_cast<std::uint64_t>(nranks - 1)));
    if (f.dst >= f.src) ++f.dst;  // never self-addressed
    f.nth = static_cast<std::int64_t>(
        r.below(static_cast<std::uint64_t>(max_nth)));
    schedule.faults.push_back(f);
  }
  return schedule;
}

void add_kills(chaos_schedule& schedule, int nranks, int nkills,
               std::int64_t max_op) {
  SFP_REQUIRE(nranks >= 2, "chaos schedules need at least two ranks");
  SFP_REQUIRE(nkills >= 0, "kill count must be non-negative");
  SFP_REQUIRE(max_op >= 1, "max_op must be >= 1");
  // Its own rng stream, decorrelated from the shape and positional streams.
  rng r(schedule.seed ^ 0x6b111ed6b111ed00ull);
  schedule.kills.reserve(schedule.kills.size() +
                         static_cast<std::size_t>(nkills));
  for (int i = 0; i < nkills; ++i) {
    chaos_kill k;
    k.rank = static_cast<int>(r.below(static_cast<std::uint64_t>(nranks)));
    k.at_op =
        1 + static_cast<std::int64_t>(r.below(static_cast<std::uint64_t>(max_op)));
    schedule.kills.push_back(k);
  }
}

runtime::fault_plan to_fault_plan(const chaos_schedule& schedule) {
  runtime::fault_plan plan;
  plan.seed = schedule.seed;
  // The per-rank op counter the injector fires kills on counts the rank's
  // own sends.
  for (const chaos_kill& k : schedule.kills)
    plan.kills.push_back({k.rank, k.at_op});
  for (const chaos_fault& f : schedule.faults) {
    runtime::fault_plan::message_fault mf;
    mf.src = f.src;
    mf.dst = f.dst;
    mf.fire_from = f.nth;
    mf.fire_count = 1;
    // Data frames only: a reliable wire message is a 5-double header plus
    // payload, so >= 6 doubles excludes the header-only ack/fence frames
    // whose send order depends on timing.
    mf.min_payload = runtime::wire::header_doubles + 1;
    switch (f.what) {
      case chaos_fault::kind::drop: mf.drop_probability = 1.0; break;
      case chaos_fault::kind::duplicate: mf.duplicate_probability = 1.0; break;
      case chaos_fault::kind::corrupt: mf.corrupt_probability = 1.0; break;
      case chaos_fault::kind::truncate: mf.truncate_probability = 1.0; break;
      case chaos_fault::kind::reorder: mf.reorder_probability = 1.0; break;
    }
    plan.message_faults.push_back(mf);
  }
  return plan;
}

io::json_value chaos_schedule_to_json(const chaos_schedule& schedule) {
  io::json_value doc = io::json_object();
  doc.object["seed"] = io::json_string(std::to_string(schedule.seed));
  io::json_value faults = io::json_array();
  for (const chaos_fault& f : schedule.faults) {
    io::json_value entry = io::json_object();
    entry.object["kind"] = io::json_string(to_string(f.what));
    entry.object["src"] = io::json_number(f.src);
    entry.object["dst"] = io::json_number(f.dst);
    entry.object["nth"] = io::json_number(static_cast<double>(f.nth));
    faults.array.push_back(std::move(entry));
  }
  doc.object["faults"] = std::move(faults);
  if (!schedule.kills.empty()) {
    io::json_value kills = io::json_array();
    for (const chaos_kill& k : schedule.kills) {
      io::json_value entry = io::json_object();
      entry.object["rank"] = io::json_number(k.rank);
      entry.object["at_op"] = io::json_number(static_cast<double>(k.at_op));
      kills.array.push_back(std::move(entry));
    }
    doc.object["kills"] = std::move(kills);
  }
  return doc;
}

chaos_schedule chaos_schedule_from_json(const io::json_value& doc) {
  SFP_REQUIRE(doc.is_object(), "chaos schedule: top level must be an object");
  io::json_require_known_keys(doc, {"seed", "faults", "kills"},
                              "chaos schedule");
  chaos_schedule schedule;
  if (doc.has("seed")) {
    const io::json_value& seed = doc.at("seed");
    if (seed.is_string()) {
      SFP_REQUIRE(!seed.string.empty() &&
                      seed.string.find_first_not_of("0123456789") ==
                          std::string::npos,
                  "chaos schedule: seed string must be a decimal uint64");
      schedule.seed = std::stoull(seed.string);
    } else {
      schedule.seed =
          io::json_integer<std::uint64_t>(seed, "chaos schedule: seed");
    }
  }
  // Both lists are optional: a kills-only or faults-only file loads.
  const io::json_value none = io::json_array();
  const auto list = [&](const std::string& key) -> const io::json_value& {
    if (!doc.has(key)) return none;
    SFP_REQUIRE(doc.at(key).is_array(),
                "chaos schedule: " + key + " must be an array");
    return doc.at(key);
  };
  for (const io::json_value& entry : list("faults").array) {
    SFP_REQUIRE(entry.is_object(), "chaos schedule: fault must be an object");
    io::json_require_known_keys(entry, {"kind", "src", "dst", "nth"},
                                "chaos schedule: fault");
    chaos_fault f;
    SFP_REQUIRE(entry.has("kind") && entry.at("kind").is_string(),
                "chaos schedule: fault kind must be a string");
    f.what = kind_from_string(entry.at("kind").string);
    f.src = io::json_integer<int>(entry.at("src"), "chaos schedule: src", 0);
    f.dst = io::json_integer<int>(entry.at("dst"), "chaos schedule: dst", 0);
    SFP_REQUIRE(f.src != f.dst, "chaos schedule: src and dst must differ");
    f.nth = io::json_integer<std::int64_t>(entry.at("nth"),
                                           "chaos schedule: nth", 0);
    schedule.faults.push_back(f);
  }
  for (const io::json_value& entry : list("kills").array) {
    SFP_REQUIRE(entry.is_object(), "chaos schedule: kill must be an object");
    io::json_require_known_keys(entry, {"rank", "at_op"},
                                "chaos schedule: kill");
    chaos_kill k;
    k.rank = io::json_integer<int>(entry.at("rank"),
                                   "chaos schedule: kill rank", 0);
    k.at_op = io::json_integer<std::int64_t>(
        entry.at("at_op"), "chaos schedule: kill at_op", 1);
    schedule.kills.push_back(k);
  }
  return schedule;
}

chaos_harness::chaos_harness(const chaos_options& opts)
    : opts_(opts),
      mesh_(opts.ne),
      model_(mesh_, opts.np),
      curve_(core::build_cube_curve(mesh_)),
      part_(core::sfc_partition(curve_, opts.nranks)) {
  SFP_REQUIRE(opts.nranks >= 2, "chaos harness needs at least two ranks");
  SFP_REQUIRE(opts.nsteps >= 1, "chaos harness needs at least one step");
  model_.set_field([](mesh::vec3 p) {
    return std::exp(-6.0 *
                    ((p.x - 1) * (p.x - 1) + p.y * p.y + p.z * p.z));
  });
  dt_ = model_.cfl_dt(0.3);
  baseline_ = run_distributed(model_, part_, dt_, opts.nsteps);
  const exchange_plan plan = exchange_plan::build(model_.dofs(), part_);
  for (int r = 0; r < opts.nranks; ++r)
    for (const auto& peer : plan.ranks[static_cast<std::size_t>(r)].peers)
      links_.emplace_back(r, peer.rank);
}

chaos_schedule chaos_harness::make_schedule(std::uint64_t seed,
                                            int nfaults) const {
  // Only a rank pair with a halo link carries data frames. Drawing over
  // every pair keeps the default problem's schedules (where every pair is
  // linked) those of make_chaos_schedule; a fault on an unlinked pair
  // moves to a link drawn from the harness's own stream.
  chaos_schedule schedule = make_chaos_schedule(
      seed, opts_.nranks, nfaults, 3 * std::int64_t{opts_.nsteps});
  rng r(seed ^ 0x11ec11ec11ec11ecull);
  for (chaos_fault& f : schedule.faults) {
    if (!std::ranges::binary_search(links_, std::pair{f.src, f.dst}))
      std::tie(f.src, f.dst) = links_[r.below(links_.size())];
  }
  return schedule;
}

chaos_trial chaos_harness::run(const chaos_schedule& schedule) const {
  chaos_trial t;
  runtime::resilience_options ropts;
  ropts.faults = to_fault_plan(schedule);
  ropts.max_recoveries = chaos_max_recoveries;
  ropts.reliable = opts_.reliable;
  std::vector<double> result;
  // A fabric failure the ladder gave up on is an abort; the report is
  // filled either way.
  try {
    result = run_distributed_resilient(model_, curve_, part_, dt_,
                                       opts_.nsteps, ropts, &t);
  } catch (const runtime::rank_killed&) {
    t.aborted = true;
  } catch (const runtime::peer_unreachable_error&) {
    t.aborted = true;
  } catch (const std::exception& e) {
    t.failure = std::string("resilient run threw: ") + e.what();
    return t;
  }
  if (settled_by_kill_contract(schedule, opts_.nranks, t)) return t;
  for (std::size_t i = 0; i < baseline_.size(); ++i)
    t.max_abs_diff =
        std::max(t.max_abs_diff, std::abs(result[i] - baseline_[i]));
  if (t.max_abs_diff > chaos_tolerance) {
    std::ostringstream os;
    os << "result diverged from the fault-free baseline: max|diff|="
       << t.max_abs_diff << " tolerance=" << chaos_tolerance;
    t.failure = os.str();
  } else {
    t.passed = true;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Partition chaos.

partition_chaos_harness::partition_chaos_harness(
    const partition_chaos_options& opts)
    : opts_(opts),
      mesh_(opts.ne),
      curve_(core::build_cube_curve(mesh_)),
      spec_(core::spec_of(curve_)),
      serial_(core::sfc_partition(curve_, opts.nparts)) {
  SFP_REQUIRE(opts.nranks >= 2,
              "partition chaos harness needs at least two ranks");
  SFP_REQUIRE(opts.nparts >= 2,
              "partition chaos harness needs at least two parts");
  SFP_REQUIRE(opts.nranks <= mesh_.num_elements(),
              "partition chaos harness: more ranks than elements");
}

chaos_schedule partition_chaos_harness::make_schedule(std::uint64_t seed,
                                                      int nfaults) const {
  // A fault-free attempt sends data frames only between the root (rank 0)
  // and each leaf, one each way per flat-star allgather, and
  // core::parallel_partition_rank runs two. Draw kind, direction and frame
  // index on a two-rank world, then a leaf for rank 1 from its own stream.
  // A leaf's second frame carries its cuts, and a leaf that owns none sends
  // it header-only, which no data-frame fault matches; so leaf -> root
  // frame 1 goes to a leaf that owns a cut. With unit weights S(x) = x,
  // and leaf r owns part p's cut iff begin_r·nparts < p·K <= end_r·nparts.
  const std::int64_t k = mesh_.num_elements();
  std::vector<int> leaves, cut_leaves;
  for (int r = 1; r < opts_.nranks; ++r) {
    leaves.push_back(r);
    const std::int64_t begin = core::element_block_begin(k, opts_.nranks, r);
    const std::int64_t end = core::element_block_begin(k, opts_.nranks, r + 1);
    const std::int64_t p = begin * opts_.nparts / k + 1;  // first p·K past begin
    if (p < opts_.nparts && p * k <= end * opts_.nparts)
      cut_leaves.push_back(r);
  }
  chaos_schedule schedule = make_chaos_schedule(seed, 2, nfaults, 2);
  rng r(seed ^ 0x1eaf1eaf1eaf1eafull);
  for (chaos_fault& f : schedule.faults) {
    if (f.src != 0 && f.nth == 1 && cut_leaves.empty()) f.nth = 0;
    const std::vector<int>& from =
        f.src != 0 && f.nth == 1 ? cut_leaves : leaves;
    (f.src == 0 ? f.dst : f.src) =
        from[static_cast<std::size_t>(r.below(from.size()))];
  }
  return schedule;
}

chaos_trial partition_chaos_harness::run(
    const chaos_schedule& schedule) const {
  chaos_trial t;
  runtime::resilience_options opts;
  opts.faults = to_fault_plan(schedule);
  opts.reliable = opts_.reliable;
  opts.max_recoveries = chaos_max_recoveries;

  runtime::parallel_partition_report report;
  try {
    report = runtime::run_parallel_partition(mesh_, spec_, opts_.nparts, {},
                                             opts_.nranks, opts);
  } catch (const std::exception& e) {
    t.failure = std::string("partition run threw: ") + e.what();
    return t;
  }
  static_cast<runtime::resilience_report&>(t) = report;
  t.aborted = report.aborted;
  if (settled_by_kill_contract(schedule, opts_.nranks, t)) return t;

  if (report.plan.num_parts != serial_.num_parts ||
      report.plan.part_of.size() != serial_.part_of.size()) {
    std::ostringstream os;
    os << "plan shape diverged from the serial slicer: num_parts="
       << report.plan.num_parts << " vs " << serial_.num_parts
       << ", elements=" << report.plan.part_of.size() << " vs "
       << serial_.part_of.size();
    t.failure = os.str();
    return t;
  }
  for (std::size_t e = 0; e < serial_.part_of.size(); ++e) {
    if (report.plan.part_of[e] != serial_.part_of[e]) {
      std::ostringstream os;
      os << "plan diverged from the serial slicer at element " << e << ": "
         << report.plan.part_of[e] << " vs " << serial_.part_of[e]
         << " (recoveries=" << report.recoveries << ")";
      t.failure = os.str();
      return t;
    }
  }
  if (report.boundaries.size() !=
      static_cast<std::size_t>(opts_.nparts) - 1) {
    t.failure = "boundaries are not nparts-1 entries";
    return t;
  }
  for (std::size_t i = 1; i < report.boundaries.size(); ++i) {
    if (report.boundaries[i] <= report.boundaries[i - 1]) {
      t.failure = "boundaries are not strictly increasing";
      return t;
    }
  }
  t.passed = true;
  return t;
}

// ---------------------------------------------------------------------------
// Shrinking and soaking, shared by both harnesses.

chaos_schedule shrink_failure(
    const chaos_schedule& failing,
    const std::function<bool(const chaos_schedule&)>& fails) {
  // ddmin over the *combined* fault + kill list: entries of both kinds
  // compete for removal, so the reproducer is 1-minimal across the whole
  // schedule (a kill that only fails in concert with a message fault keeps
  // exactly that pair).
  const std::size_t nf = failing.faults.size();
  const std::size_t nk = failing.kills.size();
  const auto rebuild = [&](const std::vector<std::size_t>& keep) {
    chaos_schedule s;
    s.seed = failing.seed;
    for (const std::size_t i : keep) {
      if (i < nf)
        s.faults.push_back(failing.faults[i]);
      else
        s.kills.push_back(failing.kills[i - nf]);
    }
    return s;
  };
  if (!fails(failing)) return failing;  // not reproducible: keep all

  std::vector<std::size_t> items(nf + nk);
  std::iota(items.begin(), items.end(), std::size_t{0});

  // Classic ddmin: try dropping ever-finer chunks, keeping any reduction
  // that still fails. Terminates at a 1-minimal subset: removing any
  // single remaining entry makes the predicate pass.
  std::size_t n = 2;
  while (items.size() >= 2) {
    const std::size_t chunk = (items.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t start = 0; start < items.size(); start += chunk) {
      std::vector<std::size_t> candidate;
      candidate.reserve(items.size());
      for (std::size_t i = 0; i < items.size(); ++i)
        if (i < start || i >= start + chunk) candidate.push_back(items[i]);
      if (candidate.size() < items.size() && fails(rebuild(candidate))) {
        items = std::move(candidate);
        n = std::max<std::size_t>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= items.size()) break;  // singles tried: 1-minimal
      n = std::min(n * 2, items.size());
    }
  }
  return rebuild(items);
}

io::json_value soak_failure_to_json(const soak_failure& f) {
  io::json_value doc = io::json_object();
  doc.object["failure"] = io::json_string(f.trial.failure);
  doc.object["max_abs_diff"] = io::json_number(f.trial.max_abs_diff);
  doc.object["aborted"] = io::json_bool(f.trial.aborted);
  doc.object["recoveries"] = io::json_number(f.trial.recoveries);
  io::json_value lost = io::json_array();
  for (const int r : f.trial.lost_ranks)
    lost.array.push_back(io::json_number(r));
  doc.object["lost_ranks"] = std::move(lost);
  doc.object["schedule"] = chaos_schedule_to_json(f.schedule);
  doc.object["shrunk"] = chaos_schedule_to_json(f.shrunk);
  return doc;
}

soak_report run_chaos_soak(const chaos_target& harness,
                           std::uint64_t base_seed, int trials, int nfaults,
                           int nkills, bool shrink) {
  SFP_REQUIRE(trials >= 1, "soak needs at least one trial");
  const auto fails = [&](const chaos_schedule& s) {
    return !harness.run(s).passed;
  };
  soak_report report;
  report.trials = trials;
  for (int i = 0; i < trials; ++i) {
    chaos_schedule schedule = harness.make_schedule(
        base_seed + static_cast<std::uint64_t>(i), nfaults);
    add_kills(schedule, harness.nranks(), nkills);
    const chaos_trial trial = harness.run(schedule);
    report.reliable += trial.reliable;
    if (trial.recoveries > 0) ++report.recovered_trials;
    if (trial.aborted) ++report.aborted_trials;
    if (trial.passed) continue;
    soak_failure f;
    f.schedule = schedule;
    f.shrunk = shrink ? shrink_failure(schedule, fails) : schedule;
    f.trial = trial;
    report.failures.push_back(std::move(f));
  }
  return report;
}

}  // namespace sfp::seam
