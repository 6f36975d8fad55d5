// gpumip-report CLI — the one profile tool (scripts/check.sh gate 8,
// scripts/bench.sh --compare).
//
//   gpumip-report --compare BASE.json CURRENT.json
//   gpumip-report --attribute BASE.json CURRENT.json [--expect-top CATEGORY]
//   gpumip-report --trace TRACE.json
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
// --trace prints the timeline analysis: critical path, per-rank
// busy/blocked/idle, device-lane overlap, cut latency.
//
// Exit status: 0 clean, 1 regression / unexpected top category, 2
// usage/IO/parse error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "report.hpp"

namespace {

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
  namespace tracetool = gpumip::tracetool;

  std::vector<std::string> compare_paths;
  std::vector<std::string> attribute_paths;
  std::string expect_top;
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
    if (arg == "--compare") {
      if (!next_pair(compare_paths)) return 2;
    } else if (arg == "--attribute") {
      if (!next_pair(attribute_paths)) return 2;
    } else if (arg == "--expect-top") {
      const char* category = next("a category id");
      if (category == nullptr) return 2;
      expect_top = category;
    } else if (arg == "--trace") {
      const char* path = next("a trace-event JSON path");
      if (path == nullptr) return 2;
      trace_path = path;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: gpumip-report --compare BASE.json CURRENT.json\n"
                   "       gpumip-report --attribute BASE.json CURRENT.json"
                   " [--expect-top CATEGORY]\n"
                   "       gpumip-report --trace TRACE.json\n";
      return 0;
    } else {
      return usage_error("unknown argument " + arg);
    }
  }
  if (!expect_top.empty() && attribute_paths.empty()) {
    return usage_error("--expect-top requires --attribute");
  }
  if (compare_paths.empty() && attribute_paths.empty() && trace_path.empty()) {
    return usage_error("nothing to do");
  }

  bool ok = true;
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

  if (!trace_path.empty()) {
    tracetool::Trace trace;
    if (!load(trace_path, tracetool::parse_trace, trace)) return 2;
    std::cout << "==> " << trace_path << "\n"
              << tracetool::format_report(tracetool::analyze(trace));
  }
  return ok ? 0 : 1;
}
