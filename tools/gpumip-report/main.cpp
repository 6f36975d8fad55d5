// gpumip-report CLI — the one profile tool (scripts/check.sh gates 8 and 9,
// scripts/bench.sh --compare).
//
//   gpumip-report --self-check [--trace TRACE.json]
//   gpumip-report --compare BASE.json CURRENT.json
//   gpumip-report --attribute BASE.json CURRENT.json [--expect-top CATEGORY]
//   gpumip-report --metrics RUN.json [--timeseries TS.json] [--trace TRACE.json]
//   gpumip-report --trace TRACE.json
//
// --self-check runs the known-answer fixtures of both engines: the report
// engine (parsing, category mapping, noise list, comparator, the embedded
// doubled-H2D drill) and the trace analyzer (flow matching, critical path,
// rank breakdowns, malformed-input rejection). With --trace it also
// requires that trace to be non-trivial (matched flows, >= 2 ranks, a
// cross-rank critical path).
//
// --compare is the recorded-baseline regression gate: it holds CURRENT to
// BASE within per-family tolerances (report.hpp, compare_tolerance) and,
// on a regression, prints the failures followed by the attribution
// ranking of which claim categories moved.
//
// --attribute loads two runs (bench-baseline documents from scripts/bench.sh
// or raw metrics exports) and prints which claim categories explain the
// delta, ranked. With --expect-top, exits 1 unless the top-ranked category
// matches.
//
// --metrics builds a single-run profile, optionally merging a time-series
// export and a trace-event timeline into the same report. --trace alone
// prints the timeline analysis: critical path, per-rank busy/blocked/idle,
// device-lane overlap, cut latency.
//
// Exit status: 0 clean, 1 regression / failed self-check / trivial trace /
// unexpected top category, 2 usage/IO/parse error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

using gpumip::tracetool::Trace;

int usage_error(const std::string& what) {
  std::cerr << "gpumip-report: " << what << " (see --help)\n";
  return 2;
}

/// Reads `path` and parses it with `parse`; reports the failure and
/// returns false on an IO or parse error.
template <typename Doc>
bool load(const std::string& path, bool (*parse)(const std::string&, Doc&, std::string&),
          Doc& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "gpumip-report: cannot read " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!parse(buffer.str(), out, error)) {
    std::cerr << "gpumip-report: " << path << ": " << error << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpumip::reporttool;

  bool self_check = false;
  std::vector<std::string> compare_paths;
  std::vector<std::string> attribute_paths;
  std::string expect_top;
  std::string metrics_path;
  std::string timeseries_path;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "gpumip-report: " << arg << " needs " << what << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    auto next_pair = [&](std::vector<std::string>& out) {
      const char* base = next("BASE.json CURRENT.json");
      const char* current = base == nullptr ? nullptr : next("CURRENT.json");
      if (current == nullptr) return false;
      out = {base, current};
      return true;
    };
    if (arg == "--self-check") {
      self_check = true;
    } else if (arg == "--compare") {
      if (!next_pair(compare_paths)) return 2;
    } else if (arg == "--attribute") {
      if (!next_pair(attribute_paths)) return 2;
    } else if (arg == "--expect-top") {
      const char* category = next("a category id");
      if (category == nullptr) return 2;
      expect_top = category;
    } else if (arg == "--metrics") {
      const char* path = next("a metrics/bench-baseline JSON path");
      if (path == nullptr) return 2;
      metrics_path = path;
    } else if (arg == "--timeseries") {
      const char* path = next("a gpumip.timeseries.v1 JSON path");
      if (path == nullptr) return 2;
      timeseries_path = path;
    } else if (arg == "--trace") {
      const char* path = next("a trace-event JSON path");
      if (path == nullptr) return 2;
      trace_path = path;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: gpumip-report --self-check [--trace TRACE.json]\n"
                   "       gpumip-report --compare BASE.json CURRENT.json\n"
                   "       gpumip-report --attribute BASE.json CURRENT.json"
                   " [--expect-top CATEGORY]\n"
                   "       gpumip-report --metrics RUN.json [--timeseries TS.json]"
                   " [--trace TRACE.json]\n"
                   "       gpumip-report --trace TRACE.json\n";
      return 0;
    } else {
      return usage_error("unknown argument " + arg);
    }
  }
  if (!expect_top.empty() && attribute_paths.empty()) {
    return usage_error("--expect-top requires --attribute");
  }
  if (!timeseries_path.empty() && metrics_path.empty()) {
    return usage_error("--timeseries requires --metrics");
  }
  if (!self_check && compare_paths.empty() && attribute_paths.empty() && metrics_path.empty() &&
      trace_path.empty()) {
    return usage_error("nothing to do");
  }

  Trace trace;
  if (!trace_path.empty() && !load(trace_path, gpumip::tracetool::parse_trace, trace)) return 2;

  bool ok = true;
  if (self_check) {
    std::cout << "==> gpumip-report self-check (known-answer fixtures)\n";
    ok = run_self_check(std::cout);
    std::cout << "==> trace analyzer self-check (known-answer fixtures)\n";
    ok = gpumip::tracetool::run_self_check(std::cout) && ok;
  }

  if (!compare_paths.empty()) {
    BenchDoc base;
    BenchDoc current;
    if (!load(compare_paths[0], parse_bench_doc, base) ||
        !load(compare_paths[1], parse_bench_doc, current)) {
      return 2;
    }
    const Comparison comparison = compare(base, current);
    std::cout << "==> compare " << compare_paths[1] << " against " << compare_paths[0] << "\n"
              << format_comparison(comparison);
    if (!comparison.failures.empty()) {
      std::cout << format_attribution(attribute(base, current));
      ok = false;
    }
  }

  if (!attribute_paths.empty()) {
    BenchDoc base;
    BenchDoc current;
    if (!load(attribute_paths[0], parse_run, base) ||
        !load(attribute_paths[1], parse_run, current)) {
      return 2;
    }
    const Attribution attribution = attribute(base, current);
    std::cout << "==> " << attribute_paths[0] << " vs " << attribute_paths[1] << "\n"
              << format_attribution(attribution);
    if (!expect_top.empty()) {
      const bool match =
          !attribution.ranked.empty() && attribution.ranked.front().category == expect_top;
      std::cout << "  [" << (match ? "PASS" : "FAIL") << "] top-ranked category is "
                << expect_top << "\n";
      if (!match) ok = false;
    }
  }

  if (!metrics_path.empty()) {
    BenchDoc run;
    if (!load(metrics_path, parse_run, run)) return 2;
    TimeSeries series;
    if (!timeseries_path.empty() && !load(timeseries_path, parse_timeseries, series)) return 2;
    const Profile profile = build_profile(run, trace_path.empty() ? nullptr : &trace,
                                          timeseries_path.empty() ? nullptr : &series);
    std::cout << "==> " << metrics_path << "\n" << format_profile(profile);
  }

  if (!trace_path.empty()) {
    const gpumip::tracetool::Report report = gpumip::tracetool::analyze(trace);
    if (metrics_path.empty()) {
      std::cout << "==> " << trace_path << "\n" << gpumip::tracetool::format_report(report);
    }
    if (self_check) {
      const std::string verdict = gpumip::tracetool::verify_nontrivial(report);
      std::cout << "  [" << (verdict.empty() ? "PASS] trace is non-trivial" : "FAIL] " + verdict)
                << "\n";
      if (!verdict.empty()) ok = false;
    }
  }
  return ok ? 0 : 1;
}
