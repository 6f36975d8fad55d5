// gpumip-lint — repo-native static analysis for the gpumip codebase.
//
// Enforces contracts that neither the compiler nor clang-tidy can express
// (DESIGN.md, "Static analysis"): where raw device-side data may appear
// (R1), that every host<->device byte movement goes through the Device
// transfer API so the C3-C5 transfer ledger stays truthful (R2), that every
// throw site carries a gpumip::ErrorCode (R3), that observability metric
// and trace-event name literals follow the gpumip.* grammar and are
// documented in docs/METRICS.md resp. docs/TRACING.md (R4). R5 (every
// public header is self-contained) needs a compiler, so it is a build
// target instead (gpumip_lint_headers, this directory's CMakeLists.txt).
// On top of the token stream sits a declaration indexer and an
// over-approximate call graph (index.hpp, callgraph.hpp) that power the
// hot-path rules R6-R9 (hotpath.hpp): no heap allocation, no by-value
// payload copies, no blocking calls, and mandatory instrumentation on the
// paths reachable from the roots declared in the checked-in manifest
// (tools/gpumip-lint/hotpaths.txt). A third layer builds per-function
// control-flow graphs (cfg.hpp) and runs forward dataflow over them
// (dataflow.hpp) for the path-sensitive span rule R12 (lifetime.hpp):
// unbalanced raw trace spans. The
// tag-protocol rule R14 (protocol.hpp) needs only the token and
// declaration indexes: every sent tag has a handler, and every
// deserializer checks exhausted(). The replay-determinism rules R15-R16
// (determinism.hpp) run on the token index alone: no wall-clock, unseeded
// randomness, or unordered-container iteration in replay-relevant code,
// and explicit seed plumbing for every RNG engine.
// Implemented as a lexer plus lightweight
// semantic matching — deliberately no libclang dependency, so the tool
// builds everywhere the library builds and runs in milliseconds over src/.
//
// The engine is a library so the test suite (tests/test_lint.cpp) can feed
// it fixture sources in memory; tools/gpumip-lint/main.cpp is the CLI that
// scripts/check.sh gate 7 drives.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace gpumip::lint {

/// One diagnostic. `rule` is a rule ID (R1-R4, R6-R9, R12, R14-R16),
/// "SUP" (suppression-file problems: syntax errors, missing justification,
/// stale entries), or "HOT" (hot-path manifest problems: syntax errors,
/// entries matching no indexed function). SUP and HOT findings are not
/// themselves suppressible.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// A source file to analyze. `path` is the repo-relative path (used for
/// the R1 confinement allowlist and suppression matching); `content` is
/// the full text.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One entry of the checked-in suppression file. Grammar (one per line):
///
///   <rule> <path-suffix> <line-substring> -- <justification>
///
/// e.g.
///   R2 parallel/simmpi.cpp std::memcpy -- host-only message serialization
///
/// A finding is suppressed when its rule matches, its file path ends with
/// <path-suffix>, and the offending source line contains <line-substring>.
/// The justification after "--" is mandatory; entries that never match any
/// finding are reported as stale (rule SUP) so suppressions cannot outlive
/// the code they excuse. '#' starts a comment line.
struct Suppression {
  std::string rule;
  std::string path_suffix;
  std::string needle;
  std::string justification;
  int line = 0;     ///< line in the suppression file (for stale reports)
  bool used = false;
};

struct Options {
  /// Full text of docs/METRICS.md. When set, R4 additionally requires every
  /// metric name literal to appear backticked in this text.
  std::optional<std::string> metrics_doc;

  /// Full text of docs/TRACING.md. When set, R4 additionally requires every
  /// trace event-name literal (GPUMIP_TRACE_* sites) to appear backticked in
  /// this text. Trace names share the metric-name grammar but live in their
  /// own catalog.
  std::optional<std::string> tracing_doc;

  /// Full text of the hot-path manifest (tools/gpumip-lint/hotpaths.txt).
  /// When set, the call-graph rules R6-R9 run rooted at its entries;
  /// `hotpaths_path` labels manifest findings (rule HOT).
  std::optional<std::string> hotpaths;
  std::string hotpaths_path = "(hotpaths)";
};

/// Parses the suppression file text. Syntax problems (missing fields,
/// empty justification) are reported as SUP findings against `path`.
std::vector<Suppression> parse_suppressions(const std::string& text, const std::string& path,
                                            std::vector<Finding>& findings);

/// Runs rules R1-R4, the dataflow span rule R12, the protocol
/// rule R14, the determinism rules R15-R16 — and, when
/// `options.hotpaths` is set, the call-graph hot-path rules R6-R9 — over
/// `files`, consuming `suppressions` (marking used entries) and appending
/// stale-suppression findings. Returns all unsuppressed findings, ordered
/// by file then line.
std::vector<Finding> run_lint(const std::vector<SourceFile>& files, const Options& options,
                              std::vector<Suppression>& suppressions);

}  // namespace gpumip::lint
