// gpumip-lint CLI — scripts/check.sh gate 7 entry point.
//
//   gpumip-lint [--metrics-doc docs/METRICS.md]
//               [--tracing-doc docs/TRACING.md]
//               [--suppressions tools/gpumip-lint/suppressions.txt]
//               [--hotpaths tools/gpumip-lint/hotpaths.txt]
//               file.cpp file.hpp ...
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 usage/environment
// error. Findings print as `file:line: [Rn] message`, one per line, so
// editors and CI logs can jump straight to the site.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reads `path` unless no path was given; exits with status 2 when the
/// file cannot be read.
std::optional<std::string> load_optional(const std::string& path, const char* what) {
  if (path.empty()) return std::nullopt;
  std::optional<std::string> text = read_file(path);
  if (!text) {
    std::cerr << "gpumip-lint: cannot read " << what << " " << path << "\n";
    std::exit(2);
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpumip::lint;

  std::string metrics_doc_path;
  std::string tracing_doc_path;
  std::string suppressions_path;
  std::string hotpaths_path;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "gpumip-lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--metrics-doc") {
      metrics_doc_path = value("--metrics-doc");
    } else if (arg == "--tracing-doc") {
      tracing_doc_path = value("--tracing-doc");
    } else if (arg == "--suppressions") {
      suppressions_path = value("--suppressions");
    } else if (arg == "--hotpaths") {
      hotpaths_path = value("--hotpaths");
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: gpumip-lint [--metrics-doc FILE] [--tracing-doc FILE] "
                   "[--suppressions FILE]\n"
                   "                   [--hotpaths FILE] files...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "gpumip-lint: unknown option " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  Options options;
  options.metrics_doc = load_optional(metrics_doc_path, "metrics doc");
  options.tracing_doc = load_optional(tracing_doc_path, "tracing doc");
  options.hotpaths = load_optional(hotpaths_path, "hot-path manifest");
  if (options.hotpaths) options.hotpaths_path = hotpaths_path;

  std::vector<Finding> findings;
  std::vector<Suppression> suppressions;
  if (const auto text = load_optional(suppressions_path, "suppression file")) {
    suppressions = parse_suppressions(*text, suppressions_path, findings);
  }

  std::vector<SourceFile> files;
  for (const std::string& path : paths) {
    std::optional<std::string> content = read_file(path);
    if (!content) {
      std::cerr << "gpumip-lint: cannot read " << path << "\n";
      return 2;
    }
    files.push_back({path, std::move(*content)});
  }
  if (files.empty()) {
    std::cerr << "gpumip-lint: no input files (see --help)\n";
    return 2;
  }

  std::vector<Finding> lint_findings = run_lint(files, options, suppressions);
  findings.insert(findings.end(), lint_findings.begin(), lint_findings.end());

  for (const Finding& f : findings) {
    std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
  if (findings.empty()) {
    std::cout << "gpumip-lint: " << files.size() << " files clean"
              << (suppressions.empty()
                      ? std::string()
                      : " (" + std::to_string(suppressions.size()) + " justified suppressions)")
              << "\n";
    return 0;
  }
  std::cerr << "gpumip-lint: " << findings.size() << " finding(s)\n";
  return 1;
}
