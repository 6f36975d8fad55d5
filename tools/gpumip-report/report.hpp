// gpumip-report: the one profile and regression tool over the
// observability exports (scripts/check.sh gate 8; docs/TRACING.md
// "Report workflow").
//
// It reads two of the observability layer's documents: metrics snapshots
// (docs/METRICS.md, gpumip.metrics.v2), merged per bench into
// bench-baseline documents by scripts/bench.sh, and trace-event timelines
// (gpumip.trace.v1, analyzed by the tracetool engine in analyze.hpp).
// Metric deltas are attributed to the paper's claim categories:
//
//   transfer  — H2D/D2H volume and staging      (gpumip.gpu.xfer.*)
//   c3_basis  — basis maintenance / refactors   (gpumip.lp.ops.*)
//   c4_cuts   — cut separation round trips      (gpumip.mip.cuts.*)
//   c5_memory — node pool, reuse, allocation    (gpumip.gpu.alloc/free, reuse)
//   c6_method — per-node LP method choice       (gpumip.lp.method/solves/solve.*)
//   c7_batch  — batched-LP wave shape           (gpumip.lp.batch.*)
//   c8_scale  — scale-out protocol traffic      (gpumip.simmpi.*, supervisor)
//
// Given TWO bench-baseline documents, `compare` is the recorded-baseline
// regression gate (scripts/bench.sh --compare), and `attribute` ranks the
// categories by how much of the metric delta they explain, so a failed
// compare arrives with a named culprit instead of a wall of counter diffs.
//
// Engine is a static library (tests/test_report.cpp drives it with
// in-memory documents); the CLI in main.cpp wraps it.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gpumip::reporttool {

// ---- input documents -------------------------------------------------------

/// The counters and gauges of a gpumip.metrics.v2 snapshot. Histograms
/// record host wall time; neither comparison nor attribution reads them.
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
};

bool parse_metrics(const std::string& json, MetricsSnapshot& out, std::string& error);

/// A gpumip.bench-baseline.v1 document: bench name -> snapshot
/// (scripts/bench.sh merges per-bench metrics exports into this form).
struct BenchDoc {
  std::map<std::string, MetricsSnapshot> benches;
};

bool parse_bench_doc(const std::string& json, BenchDoc& out, std::string& error);

/// Either input form for the two-run attribution: a bench-baseline
/// document or a single metrics export (wrapped as one bench named "run").
bool parse_run(const std::string& json, BenchDoc& out, std::string& error);

// ---- claim-category mapping ------------------------------------------------

/// Category id for a metric name ("transfer", "c3_basis", ..., "other"),
/// or "" for names excluded from attribution entirely: the observability
/// layer's own bookkeeping (gpumip.obs.*, such as trace-ring drops) and
/// host-timing noise (*.idle_seconds, checkpoint hits) — the same noise
/// list `compare` skips. Labels are ignored for
/// categorization: `gpumip.lp.solves{method=pdhg}` maps where
/// `gpumip.lp.solves` does.
std::string category_of(const std::string& metric_name);

// ---- two-run attribution ---------------------------------------------------

struct MetricDelta {
  std::string bench;
  std::string name;
  double base = 0.0;
  double current = 0.0;
  double score = 0.0;  ///< |current-base| / max(|base|, floor)
};

struct CategoryDelta {
  std::string category;
  double score = 0.0;               ///< sum of member metric scores
  std::vector<MetricDelta> top;     ///< largest contributors, descending
};

struct Attribution {
  std::vector<CategoryDelta> ranked;  ///< descending by score; zero-score
                                      ///< categories are omitted
  long metrics_compared = 0;
};

/// Ranks which claim categories explain the metric delta between two
/// runs. Metrics on the exclusion list contribute nothing. Only the
/// benches and names the baseline holds are scored: a metric missing from
/// `current` scores against its baseline value, and one missing from
/// `base` is not scored at all (compare warns about new names).
Attribution attribute(const BenchDoc& base, const BenchDoc& current);

// ---- baseline comparison ---------------------------------------------------

/// Relative tolerance `compare` applies to counter/gauge `name` of `bench`,
/// or nullopt when it is skipped. Skipped: the noise list (see
/// category_of) and per-rank `{rank=N}` splits, whose world totals are
/// compared instead. Tolerances: 2% on the paper-claim ledgers
/// (gpumip.gpu.*, gpumip.lp.*, gpumip.mip.*), 25% on everything else, and
/// 25% on every metric of the e8_scaleout bench, whose supervisor runs
/// change pruning with incumbent discovery order; its
/// gpumip.mip.tree.pruned moves further than that between correct runs and
/// is skipped. A change is in tolerance when
/// |current - base| <= max(tolerance * |base|, 1e-9).
std::optional<double> compare_tolerance(const std::string& bench, const std::string& name);

struct Comparison {
  std::vector<std::string> failures;  ///< "bench: ..." lines; any fails the gate
  std::vector<std::string> warnings;  ///< new benches/metrics, not yet tracked
  long compared = 0;                  ///< metrics held to a tolerance
};

/// The recorded-baseline regression gate over counters and gauges
/// (histograms record host wall time and are not compared). A bench or
/// metric of `base` missing from `current` fails; one new in `current`
/// only warns, since the fix is to regenerate the baseline.
Comparison compare(const BenchDoc& base, const BenchDoc& current);

// ---- rendering -------------------------------------------------------------

std::string format_comparison(const Comparison& comparison);
std::string format_attribution(const Attribution& attribution);

}  // namespace gpumip::reporttool
