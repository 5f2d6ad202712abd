#include "io/trace_io.hpp"

#include <fstream>
#include <ostream>

#include "io/json.hpp"
#include "util/contract.hpp"

namespace sfp::io {

namespace {

/// Timestamps: steady-clock ns relative to the session epoch, emitted as
/// microseconds with nanosecond precision (Chrome's "ts" unit is us and
/// accepts fractions).
void write_us(std::ostream& os, std::int64_t ns) {
  const char sign = ns < 0 ? '-' : '\0';
  if (ns < 0) ns = -ns;
  if (sign) os << sign;
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10)
     << static_cast<char>('0' + ns % 10);
}

}  // namespace

void write_chrome_trace(std::ostream& os, const obs::trace_dump& dump,
                        const obs::metrics_snapshot* metrics) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  for (const obs::thread_trace& t : dump.threads) {
    if (!t.name.empty()) {
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << t.tid << ",\"args\":{\"name\":\"" << json_escape(t.name)
         << "\"}}";
    }
    for (const obs::trace_event& e : t.events) {
      sep();
      os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
         << json_escape(e.category) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << t.tid << ",\"ts\":";
      write_us(os, e.start_ns - dump.epoch_ns);
      os << ",\"dur\":";
      write_us(os, e.dur_ns);
      os << "}";
    }
    if (t.dropped > 0) {
      // Surface overflow in the trace itself rather than losing it.
      sep();
      os << "{\"name\":\"dropped " << t.dropped
         << " events\",\"cat\":\"obs\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << t.tid << ",\"ts\":0,\"dur\":0}";
    }
  }
  if (metrics) {
    // One sample per counter at the session epoch: enough for a flat
    // counter track per name (viewers show the value on hover). Zero
    // counters are skipped — the registry registers every counter a code
    // path *could* bump, and a wall of zero tracks buries the faults.
    for (const auto& c : metrics->counters) {
      if (c.value == 0) continue;
      sep();
      os << "{\"name\":\"" << json_escape(c.name)
         << "\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"ts\":0,"
            "\"args\":{\"value\":"
         << c.value << "}}";
    }
  }
  os << "]}\n";
}

void write_chrome_trace_file(const std::string& path,
                             const obs::trace_dump& dump,
                             const obs::metrics_snapshot* metrics) {
  std::ofstream os(path);
  SFP_REQUIRE(os.good(), "cannot open trace file for writing: " + path);
  write_chrome_trace(os, dump, metrics);
  os.flush();
  SFP_REQUIRE(os.good(), "failed writing trace file: " + path);
}

void write_metrics_json(std::ostream& os, const obs::metrics_snapshot& snap) {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& c : snap.counters) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(c.name) << "\":" << c.value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& g : snap.gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(g.name) << "\":" << g.value;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    if (!first) os << ",";
    first = false;
    int last = obs::histogram::kBuckets;
    while (last > 0 && h.buckets[static_cast<std::size_t>(last - 1)] == 0)
      --last;
    os << "\"" << json_escape(h.name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"buckets\":[";
    for (int i = 0; i < last; ++i) {
      if (i) os << ",";
      os << h.buckets[static_cast<std::size_t>(i)];
    }
    os << "]}";
  }
  os << "}}\n";
}

void write_metrics_json_file(const std::string& path,
                             const obs::metrics_snapshot& snap) {
  std::ofstream os(path);
  SFP_REQUIRE(os.good(), "cannot open metrics file for writing: " + path);
  write_metrics_json(os, snap);
  os.flush();
  SFP_REQUIRE(os.good(), "failed writing metrics file: " + path);
}

}  // namespace sfp::io
