// gpumip-lint — repo-native static analysis for the gpumip codebase.
//
// Enforces contracts that neither the compiler nor clang-tidy can express
// (DESIGN.md, "Static analysis"): where raw device-side data may appear
// (R1), that every host<->device byte movement goes through the Device
// transfer API so the C3-C5 transfer ledger stays truthful (R2), that every
// throw site carries a gpumip::ErrorCode (R3), that observability metric
// and trace-event name literals follow the gpumip.* grammar and are
// documented in docs/METRICS.md resp. docs/TRACING.md (R4), and that every
// public header is self-contained
// (R5). On top of the token stream sits a declaration indexer and an
// over-approximate call graph (index.hpp, callgraph.hpp) that power the
// hot-path rules R6-R9 (hotpath.hpp): no heap allocation, no by-value
// payload copies, no blocking calls, and mandatory instrumentation on the
// paths reachable from the roots declared in the checked-in manifest
// (tools/gpumip-lint/hotpaths.txt). A third layer builds per-function
// control-flow graphs (cfg.hpp) and runs forward dataflow over them
// (dataflow.hpp) for the path-sensitive lifetime rules R10-R12
// (lifetime.hpp): use-after-move, arena use-after-reset, and unbalanced
// trace spans. A fourth layer reuses the same CFGs for the protocol rules
// R13-R14 (protocol.hpp): wire-format symmetry between each
// ByteWriter serializer and its ByteReader deserializer compared per CFG
// path, send-tag handler coverage, and mandatory exhausted() checks — and
// runs the replay-determinism rules R15-R16 (determinism.hpp): no
// wall-clock, unseeded randomness, or unordered-container iteration in
// replay-relevant code, and explicit seed plumbing for every RNG engine.
// Implemented as a lexer plus lightweight
// semantic matching — deliberately no libclang dependency, so the tool
// builds everywhere the library builds and runs in milliseconds over src/.
//
// The engine is a library so the test suite (tests/test_lint.cpp) can feed
// it fixture sources in memory; tools/gpumip-lint/main.cpp is the CLI that
// scripts/check.sh gate 7 drives.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace gpumip::lint {

/// One diagnostic. `rule` is "R1".."R16", "SUP" (suppression-file problems:
/// syntax errors, missing justification, stale entries), or "HOT"
/// (hot-path manifest problems: syntax errors, entries matching no indexed
/// function). SUP and HOT findings are not themselves suppressible.
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
  /// Full text of docs/METRICS.md. When `have_metrics_doc` is set, R4
  /// additionally requires every metric name literal to appear backticked
  /// in this text.
  std::string metrics_doc;
  bool have_metrics_doc = false;

  /// Full text of docs/TRACING.md. When `have_tracing_doc` is set, R4
  /// additionally requires every trace event-name literal (GPUMIP_TRACE_*
  /// sites) to appear backticked in this text. Trace names share the
  /// metric-name grammar but live in their own catalog.
  std::string tracing_doc;
  bool have_tracing_doc = false;

  /// Path stems (matched against "<stem>.") whose files form the device
  /// context: raw DeviceBuffer::as<T>() access is legal there (R1), and
  /// their copy primitives are still subject to R2's device-span test.
  std::vector<std::string> device_context = {
      "linalg/batched",
      "linalg/device_blas",
      "gpu/device",
  };

  /// The one file allowed to move raw bytes (memcpy & friends): the
  /// Device transfer engine, which is what the H2D/D2H ledger instruments.
  std::string transfer_engine = "gpu/device.cpp";

  /// Full text of the hot-path manifest (tools/gpumip-lint/hotpaths.txt).
  /// When `have_hotpaths` is set, the call-graph rules R6-R9 run rooted at
  /// its entries; `hotpaths_path` labels manifest findings (rule HOT).
  std::string hotpaths;
  bool have_hotpaths = false;
  std::string hotpaths_path = "(hotpaths)";

  /// The path-sensitive lifetime rules R10-R12 (lifetime.hpp): per-function
  /// CFGs + forward dataflow over them. On by default; a test can switch
  /// them off to isolate the token rules.
  bool lifetime_rules = true;

  /// The protocol rules R13-R14 (protocol.hpp): wire-format symmetry per
  /// CFG path, tag-protocol coverage, and mandatory exhausted() checks.
  bool protocol_rules = true;

  /// The replay-determinism rules R15-R16 (determinism.hpp).
  bool determinism_rules = true;

  /// Path prefixes (also matched after any '/') inside which R15-R16
  /// apply. Defaults to all of src/: the repo's replay invariant covers
  /// the whole solve, so exceptions are waivers, not scope carve-outs.
  std::vector<std::string> determinism_scope = {"src/"};

  /// Worker threads for the per-file scan phase (lex + token index):
  /// 0 = hardware_concurrency capped at 8. Findings and their order are
  /// identical at any job count (per-file slots, merged in input order).
  std::size_t jobs = 0;
};

/// Wall-time and size accounting for one run_lint call, filled when the
/// caller passes a RunStats. The scan (lex + token index) happens once and
/// every rule family reads from it; `index_ms` likewise covers the one
/// declaration-indexer + call-graph build shared by R6-R9 and R10-R12.
struct RunStats {
  double scan_ms = 0.0;         ///< lex + token-index build, all files (wall)
  double scan_serial_ms = 0.0;  ///< sum of per-file scan times (serial equivalent)
  std::size_t scan_jobs = 1;    ///< threads the scan phase actually used
  double rules_ms = 0.0;        ///< token rules R1-R4
  double index_ms = 0.0;        ///< declaration indexer + call graph (shared)
  double hotpath_ms = 0.0;      ///< R6-R9 traversal
  double lifetime_ms = 0.0;     ///< CFG build + dataflow R10-R12
  double protocol_ms = 0.0;     ///< wire-format + tag rules R13-R14
  double determinism_ms = 0.0;  ///< replay-determinism rules R15-R16
  std::size_t files = 0;
  std::size_t functions = 0;
};

/// Parses the suppression file text. Syntax problems (missing fields,
/// empty justification) are reported as SUP findings against `path`.
std::vector<Suppression> parse_suppressions(const std::string& text, const std::string& path,
                                            std::vector<Finding>& findings);

/// Runs rules R1-R4, the lifetime dataflow rules R10-R12, the protocol
/// rules R13-R14, the determinism rules R15-R16 (each family has an
/// Options toggle) — and, when `options.have_hotpaths` is
/// set, the call-graph hot-path rules R6-R9 — over `files`, consuming
/// `suppressions` (marking used entries) and appending stale-suppression
/// findings. Returns all unsuppressed findings, ordered by file then line.
/// When `stats` is non-null it receives per-phase wall times; when
/// `waived_out` is non-null it receives the findings a suppression entry
/// silenced (for --format=json reporting).
std::vector<Finding> run_lint(const std::vector<SourceFile>& files, const Options& options,
                              std::vector<Suppression>& suppressions,
                              RunStats* stats = nullptr,
                              std::vector<Finding>* waived_out = nullptr);

/// R5: compiles one translation unit `#include "<header>"` per header with
/// `compiler -std=c++20 -fsyntax-only -I include_dir`, using `scratch_dir`
/// for the generated TUs and captured compiler output. `headers` are paths
/// relative to `include_dir`. Probes are independent, so they run on a
/// small thread pool: `jobs` threads, or hardware_concurrency (capped at
/// 8) when 0. Returns one finding per header that fails, in header order.
std::vector<Finding> check_headers_standalone(const std::vector<std::string>& headers,
                                              const std::string& include_dir,
                                              const std::string& compiler,
                                              const std::string& scratch_dir,
                                              std::size_t jobs = 0);

/// Built-in seeded-violation fixtures: one per rule R1-R4 and R6-R16
/// proving the rule fires, one clean fixture per rule proving it stays
/// quiet, the suppression/annotation round trips, call-graph transitivity
/// and stop-pruning, CFG edge cases for the dataflow rules (early return,
/// loop back edges, switch fallthrough, lambda carving), and manifest
/// staleness (HOT). Prints a report to
/// `out` with per-rule wall time; returns true when every expectation
/// holds. (R5 is exercised by tests/test_lint.cpp and the gate itself,
/// since it needs a compiler.)
bool run_self_test(std::ostream& out);

}  // namespace gpumip::lint
