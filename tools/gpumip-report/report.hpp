// gpumip-report: the one profile and regression tool over the
// observability exports (scripts/check.sh gates 8 and 9; docs/TRACING.md
// "Report workflow").
//
// The observability layer exports three complementary documents — a
// metrics snapshot (docs/METRICS.md, gpumip.metrics.v2), a sim-clock
// time series (gpumip.timeseries.v1, src/obs/sampler.hpp), and a
// trace-event timeline (gpumip.trace.v1, analyzed by the tracetool engine
// in tools/gpumip-trace). This tool merges them into one profile that
// attributes where the makespan went in terms of the paper's claim
// categories:
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

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analyze.hpp"  // tracetool::Trace / Report for the timeline leg

namespace gpumip::reporttool {

// ---- input documents -------------------------------------------------------

/// Flattened gpumip.metrics.v2 snapshot: one map per instrument kind,
/// histogram values folded to (count, sum).
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::pair<double, double>> histograms;  ///< count, sum
  std::string schema;
  bool enabled = false;
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

/// A gpumip.timeseries.v1 document (src/obs/sampler.hpp export).
struct TimeSeries {
  double period = 0.0;
  std::uint64_t dropped = 0;
  std::vector<std::string> columns;        ///< flattened "name:kind"
  std::vector<double> ts;                  ///< row timestamps
  std::vector<std::vector<double>> rows;   ///< per-row column values
};

bool parse_timeseries(const std::string& json, TimeSeries& out, std::string& error);

// ---- claim-category mapping ------------------------------------------------

/// Category id for a metric name ("transfer", "c3_basis", ..., "other"),
/// or "" for names excluded from attribution entirely: the observability
/// layer's own bookkeeping (gpumip.obs.*, including trace-ring drops and
/// sampler overhead) and host-timing noise (*.idle_seconds, checkpoint
/// hits) — the same noise list `compare` skips. Labels are ignored for
/// categorization: `gpumip.lp.solves{method=pdhg}` maps where
/// `gpumip.lp.solves` does.
std::string category_of(const std::string& metric_name);

/// All category ids in report order (excludes the "" exclusion marker).
const std::vector<std::string>& category_ids();

// ---- single-run profile ----------------------------------------------------

struct CategoryTotal {
  std::string category;
  long metrics = 0;      ///< distinct counter/gauge names contributing
  double total = 0.0;    ///< sum of counter/gauge values (mixed units; a
                         ///< volume indicator, not a physical quantity)
};

/// One run's merged view: metric mass per category, plus (when present)
/// the trace's makespan / per-rank split and the time-series shape.
struct Profile {
  std::vector<CategoryTotal> categories;  ///< report order, incl. zeros
  bool has_trace = false;
  tracetool::Report trace;                ///< valid when has_trace
  bool has_timeseries = false;
  std::size_t timeseries_rows = 0;
  double timeseries_span = 0.0;           ///< last ts - first ts
};

Profile build_profile(const BenchDoc& run, const tracetool::Trace* trace,
                      const TimeSeries* series);

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
/// runs. Metrics on the exclusion list contribute nothing; a metric
/// missing from one side is scored against zero.
Attribution attribute(const BenchDoc& base, const BenchDoc& current);

// ---- baseline comparison ---------------------------------------------------

/// Relative tolerance `compare` applies to counter/gauge `name` of `bench`,
/// or nullopt when it is skipped. Skipped: the noise list (see
/// category_of) and per-rank `{rank=N}` splits, whose world totals are
/// compared instead. Tolerances: 2% on the paper-claim ledgers
/// (gpumip.gpu.*, gpumip.lp.*, gpumip.mip.*), 25% on everything else, and
/// 25% on every metric of the e8_scaleout bench, whose supervisor runs
/// change pruning with incumbent discovery order. A change is in
/// tolerance when |current - base| <= max(tolerance * |base|, 1e-9).
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

std::string format_profile(const Profile& profile);
std::string format_attribution(const Attribution& attribution);

/// Built-in known-answer fixtures: document parsing (metrics v2, bench
/// baselines, time series), category mapping, exclusion list, and
/// an embedded doubled-H2D regression whose attribution must rank the
/// transfer category first. Prints one line per expectation; returns
/// false if any fails.
bool run_self_check(std::ostream& out);

}  // namespace gpumip::reporttool
