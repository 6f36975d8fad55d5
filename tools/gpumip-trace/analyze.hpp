// Timeline analyzer for the Chrome trace-event JSON written by
// obs/trace.hpp (gpumip-report --trace; scripts/check.sh gate 9;
// docs/TRACING.md).
//
// Metrics (docs/METRICS.md) aggregate totals; the exported trace keeps the
// order. This tool turns the order back into the numbers the paper's
// temporal claims are about:
//
//   * critical path   — backward chaining through the cross-rank flow DAG
//                       (simmpi send→recv arrows) from the event that ends
//                       the makespan to the start of the run,
//   * per-rank busy / blocked-on-recv / idle breakdown,
//   * H2D/D2H transfer overlap vs. kernel compute per rank (paper C5/C7),
//   * cut round-trip latency (paper C4) from the cuts.round spans.
//
// Engine is a static library (tests/test_trace.cpp drives it with in-memory
// traces); the gpumip-report CLI (tools/gpumip-report) wraps it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gpumip::tracetool {

/// One trace-event JSON entry, decoded into the fields the analyses use.
/// `ts`/`dur` stay in the file's microseconds; reports convert to seconds.
struct AnalyzerEvent {
  std::string name;
  char ph = '?';          ///< B, E, i, X, s, f, M
  int pid = 0;
  long long tid = 0;
  double ts = 0.0;        ///< microseconds
  double dur = 0.0;       ///< microseconds, ph == 'X' only
  std::string flow_id;    ///< ph == 's'/'f' only
  int rank = -1;          ///< args.rank (-1 for unbound host threads)
  std::string lane;       ///< args.lane: cpu, h2d, d2h, kernel
  double arg = 0.0;       ///< args.arg numeric payload
};

struct Trace {
  std::vector<AnalyzerEvent> events;
  std::uint64_t dropped = 0;  ///< otherData.dropped from the exporter
  int sim_pid = 1;            ///< pid of the "simulated time" process
};

/// Decodes a trace-event JSON document (object form with "traceEvents", as
/// obs::trace::to_json writes, or a bare event array). Returns false and
/// sets `error` on malformed JSON or a missing/ill-typed traceEvents list.
bool parse_trace(const std::string& json, Trace& out, std::string& error);

struct RankBreakdown {
  int rank = -1;
  long events = 0;
  double span_seconds = 0.0;     ///< first event to last event, sim time
  double busy_seconds = 0.0;     ///< covered by non-wait spans
  double blocked_seconds = 0.0;  ///< covered by gpumip.simmpi.recv.wait
  double idle_seconds = 0.0;     ///< span minus busy minus blocked
};

/// One cross-rank arrow on the critical path: work on `to_rank` after
/// `recv_ts` depended on `from_rank` up to `send_ts`.
struct CriticalHop {
  int from_rank = -1;
  int to_rank = -1;
  double send_ts_seconds = 0.0;
  double recv_ts_seconds = 0.0;
};

struct DeviceBreakdown {
  int rank = -1;  ///< rank whose simulated device these lanes belong to
  double h2d_seconds = 0.0;
  double d2h_seconds = 0.0;
  double kernel_seconds = 0.0;
  double overlap_seconds = 0.0;  ///< transfer busy ∩ kernel busy
};

struct Report {
  long events = 0;
  std::uint64_t dropped = 0;
  double makespan_seconds = 0.0;  ///< latest sim timestamp in the trace
  std::vector<RankBreakdown> ranks;
  /// Forward order (run start → makespan end); empty when the trace has no
  /// matched flow reachable backward from the makespan event.
  std::vector<CriticalHop> critical_path;
  double critical_start_seconds = 0.0;
  double critical_end_seconds = 0.0;
  std::vector<DeviceBreakdown> devices;
  long flows_total = 0;    ///< distinct flow ids
  long flows_matched = 0;  ///< ids with both the 's' and the 'f' half
  long cut_rounds = 0;
  double cut_latency_total_seconds = 0.0;
  double cut_latency_max_seconds = 0.0;
};

Report analyze(const Trace& trace);

/// Human-readable multi-section report (what `gpumip-report --trace` prints).
std::string format_report(const Report& report);

/// Empty string when the trace exercises the analyses (matched flows, a
/// critical path with at least one hop, two or more ranks); otherwise the
/// reason it is trivial. Gate 9 runs this against the committed fixture.
std::string verify_nontrivial(const Report& report);

/// Built-in fixtures with known-by-construction answers: parses and
/// analyzes synthetic traces, checks exact interval arithmetic, flow
/// matching, critical-path chaining, and malformed-input rejection.
/// Prints one line per fixture; returns false if any expectation fails.
bool run_self_check(std::ostream& out);

}  // namespace gpumip::tracetool
