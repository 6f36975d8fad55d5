#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <ostream>
#include <sstream>

#include "json.hpp"

namespace gpumip::reporttool {

namespace {

using tracetool::JsonReader;
using tracetool::JsonValue;
using tracetool::number_or;
using tracetool::string_or;

bool number_map(const JsonValue* obj, std::map<std::string, double>& out, std::string& error,
                const char* what) {
  out.clear();
  if (obj == nullptr) return true;  // absent map = empty map
  if (obj->type != JsonValue::Type::kObject) {
    error = std::string(what) + " is not an object";
    return false;
  }
  for (const auto& [name, v] : obj->object) {
    if (v.type != JsonValue::Type::kNumber) {
      error = std::string(what) + " entry '" + name + "' is not a number";
      return false;
    }
    out[name] = v.number;
  }
  return true;
}

bool snapshot_from(const JsonValue& root, MetricsSnapshot& out, std::string& error) {
  out = MetricsSnapshot{};
  if (root.type != JsonValue::Type::kObject) {
    error = "metrics document is not an object";
    return false;
  }
  out.schema = string_or(root.find("schema"), "");
  if (const JsonValue* enabled = root.find("enabled");
      enabled != nullptr && enabled->type == JsonValue::Type::kBool) {
    out.enabled = enabled->boolean;
  }
  if (!number_map(root.find("counters"), out.counters, error, "counters")) return false;
  if (!number_map(root.find("gauges"), out.gauges, error, "gauges")) return false;
  if (const JsonValue* hists = root.find("histograms"); hists != nullptr) {
    if (hists->type != JsonValue::Type::kObject) {
      error = "histograms is not an object";
      return false;
    }
    for (const auto& [name, h] : hists->object) {
      if (h.type != JsonValue::Type::kObject) {
        error = "histogram '" + name + "' is not an object";
        return false;
      }
      out.histograms[name] = {number_or(h.find("count"), 0.0), number_or(h.find("sum"), 0.0)};
    }
  }
  return true;
}

constexpr double kAbsFloor = 1e-9;  // slack for baselines at or near zero

// Comparator tolerances, relative to the baseline value.
constexpr double kTightTolerance = 0.02;  // the paper-claim ledgers
constexpr double kLooseTolerance = 0.25;  // protocol traffic, everything else

/// Family part of a possibly-labeled metric name: everything before '{'.
std::string strip_labels(const std::string& name) {
  const std::size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// The noise list: metrics that are host-timing or bookkeeping noise,
/// never solver work, matched on the label-stripped family name. The
/// comparator skips them and attribution never blames them.
bool is_noise(const std::string& metric_name) {
  const std::string name = strip_labels(metric_name);
  // Trace-ring drops and sampler-row counts depend on how much tracing and
  // sampling ran; idle seconds are wall-clock blocking time; quiesced-point
  // hits depend on timing.
  return starts_with(name, "gpumip.obs.") || ends_with(name, ".idle_seconds") ||
         name == "gpumip.supervisor.checkpoints";
}

/// Rewrite `name{...,rank=R,...}` without its rank pair (empty label sets
/// drop the braces). Which rank serves which node is race-dependent, so
/// two correct runs shuffle the per-rank splits freely; only the summed
/// family total is replay-stable evidence.
std::string drop_rank_label(const std::string& name) {
  const std::size_t open = name.find('{');
  if (open == std::string::npos || name.back() != '}') return name;
  std::string kept;
  std::size_t pos = open + 1;
  const std::size_t end = name.size() - 1;
  while (pos < end) {
    std::size_t comma = name.find(',', pos);
    if (comma == std::string::npos || comma > end) comma = end;
    const std::string pair = name.substr(pos, comma - pos);
    if (pair.rfind("rank=", 0) != 0) {
      if (!kept.empty()) kept += ',';
      kept += pair;
    }
    pos = comma + 1;
  }
  const std::string base = name.substr(0, open);
  return kept.empty() ? base : base + "{" + kept + "}";
}

/// Sum rank-labeled splits into their family total before scoring.
std::map<std::string, double> aggregate_rank_splits(
    const std::map<std::string, double>& values) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : values) out[drop_rank_label(name)] += value;
  return out;
}

}  // namespace

bool parse_metrics(const std::string& json, MetricsSnapshot& out, std::string& error) {
  JsonValue root;
  if (!JsonReader(json).parse(root, error)) return false;
  if (!snapshot_from(root, out, error)) return false;
  if (out.schema != "gpumip.metrics.v2") {
    error = "unexpected metrics schema '" + out.schema + "'";
    return false;
  }
  return true;
}

bool parse_bench_doc(const std::string& json, BenchDoc& out, std::string& error) {
  JsonValue root;
  if (!JsonReader(json).parse(root, error)) return false;
  if (string_or(root.find("schema"), "") != "gpumip.bench-baseline.v1") {
    error = "unexpected baseline schema '" + string_or(root.find("schema"), "") + "'";
    return false;
  }
  const JsonValue* benches = root.find("benches");
  if (benches == nullptr || benches->type != JsonValue::Type::kObject) {
    error = "document has no benches object";
    return false;
  }
  out.benches.clear();
  for (const auto& [bench, doc] : benches->object) {
    MetricsSnapshot snap;
    if (!snapshot_from(doc, snap, error)) {
      error = "bench '" + bench + "': " + error;
      return false;
    }
    snap.enabled = true;  // the merge script refuses disabled exports
    out.benches[bench] = std::move(snap);
  }
  if (out.benches.empty()) {
    error = "baseline document has no benches";
    return false;
  }
  return true;
}

bool parse_run(const std::string& json, BenchDoc& out, std::string& error) {
  JsonValue root;
  if (!JsonReader(json).parse(root, error)) return false;
  const std::string schema = string_or(root.find("schema"), "");
  if (schema == "gpumip.bench-baseline.v1") return parse_bench_doc(json, out, error);
  MetricsSnapshot snap;
  if (!parse_metrics(json, snap, error)) return false;
  out.benches.clear();
  out.benches["run"] = std::move(snap);
  return true;
}

bool parse_timeseries(const std::string& json, TimeSeries& out, std::string& error) {
  JsonValue root;
  if (!JsonReader(json).parse(root, error)) return false;
  if (string_or(root.find("schema"), "") != "gpumip.timeseries.v1") {
    error = "unexpected time-series schema '" + string_or(root.find("schema"), "") + "'";
    return false;
  }
  out = TimeSeries{};
  out.period = number_or(root.find("period"), 0.0);
  out.dropped = static_cast<std::uint64_t>(number_or(root.find("dropped"), 0.0));
  const JsonValue* columns = root.find("columns");
  if (columns == nullptr || columns->type != JsonValue::Type::kArray) {
    error = "document has no columns array";
    return false;
  }
  for (const JsonValue& col : columns->array) {
    out.columns.push_back(string_or(col.find("name"), "?") + ":" +
                          string_or(col.find("kind"), "?"));
  }
  const JsonValue* rows = root.find("rows");
  if (rows == nullptr || rows->type != JsonValue::Type::kArray) {
    error = "document has no rows array";
    return false;
  }
  for (const JsonValue& row : rows->array) {
    out.ts.push_back(number_or(row.find("ts"), 0.0));
    std::vector<double> values;
    if (const JsonValue* vs = row.find("values");
        vs != nullptr && vs->type == JsonValue::Type::kArray) {
      for (const JsonValue& v : vs->array) values.push_back(v.number);
    }
    if (values.size() != out.columns.size()) {
      error = "row " + std::to_string(out.rows.size()) + " has " +
              std::to_string(values.size()) + " values for " +
              std::to_string(out.columns.size()) + " columns";
      return false;
    }
    out.rows.push_back(std::move(values));
  }
  return true;
}

const std::vector<std::string>& category_ids() {
  static const std::vector<std::string> kIds = {
      "transfer", "c3_basis", "c4_cuts", "c5_memory",
      "c6_method", "c7_batch", "c8_scale", "other",
  };
  return kIds;
}

std::string category_of(const std::string& metric_name) {
  if (is_noise(metric_name)) return "";
  const std::string name = strip_labels(metric_name);
  if (starts_with(name, "gpumip.gpu.xfer.")) return "transfer";
  if (starts_with(name, "gpumip.lp.ops.")) return "c3_basis";
  if (starts_with(name, "gpumip.mip.cuts.") || starts_with(name, "gpumip.cuts.")) {
    return "c4_cuts";
  }
  if (starts_with(name, "gpumip.gpu.alloc") || starts_with(name, "gpumip.gpu.free") ||
      starts_with(name, "gpumip.gpu.arena") || starts_with(name, "gpumip.mip.reuse.") ||
      starts_with(name, "gpumip.mip.pool.")) {
    return "c5_memory";
  }
  if (starts_with(name, "gpumip.lp.batch.")) return "c7_batch";
  if (starts_with(name, "gpumip.lp.method") || starts_with(name, "gpumip.lp.solve") ||
      starts_with(name, "gpumip.lp.pdhg.") || starts_with(name, "gpumip.lp.ipm.") ||
      starts_with(name, "gpumip.lp.simplex.")) {
    return "c6_method";
  }
  if (starts_with(name, "gpumip.simmpi.") || starts_with(name, "gpumip.supervisor.")) {
    return "c8_scale";
  }
  return "other";
}

Profile build_profile(const BenchDoc& run, const tracetool::Trace* trace,
                      const TimeSeries* series) {
  Profile profile;
  std::map<std::string, CategoryTotal> totals;
  for (const std::string& id : category_ids()) totals[id].category = id;
  for (const auto& [bench, snap] : run.benches) {
    auto account = [&totals](const std::map<std::string, double>& values) {
      for (const auto& [name, value] : values) {
        const std::string cat = category_of(name);
        if (cat.empty()) continue;
        ++totals[cat].metrics;
        totals[cat].total += value;
      }
    };
    account(snap.counters);
    account(snap.gauges);
  }
  for (const std::string& id : category_ids()) profile.categories.push_back(totals[id]);

  if (trace != nullptr) {
    profile.has_trace = true;
    profile.trace = tracetool::analyze(*trace);
  }
  if (series != nullptr) {
    profile.has_timeseries = true;
    profile.timeseries_rows = series->ts.size();
    if (series->ts.size() >= 2) {
      profile.timeseries_span = series->ts.back() - series->ts.front();
    }
  }
  return profile;
}

Attribution attribute(const BenchDoc& base, const BenchDoc& current) {
  Attribution out;
  std::map<std::string, CategoryDelta> per_category;

  auto score_kind = [&](const std::string& bench, const std::map<std::string, double>& raw_base,
                        const std::map<std::string, double>& raw_cur) {
    // Per-rank splits are summed into their family total first: rank
    // assignment is race-dependent across correct runs, and a 49-byte
    // rank shard doubling would otherwise outscore a real regression.
    const std::map<std::string, double> base_map = aggregate_rank_splits(raw_base);
    const std::map<std::string, double> cur_map = aggregate_rank_splits(raw_cur);
    // Union of names: a metric missing from one side scores against zero
    // (appearing or vanishing entirely is itself a signal).
    std::vector<std::string> names;
    for (const auto& [name, v] : base_map) names.push_back(name);
    for (const auto& [name, v] : cur_map) {
      if (base_map.find(name) == base_map.end()) names.push_back(name);
    }
    for (const std::string& name : names) {
      const std::string cat = category_of(name);
      if (cat.empty()) continue;
      const auto b = base_map.find(name);
      const auto c = cur_map.find(name);
      const double base_value = b == base_map.end() ? 0.0 : b->second;
      const double cur_value = c == cur_map.end() ? 0.0 : c->second;
      const double delta = std::fabs(cur_value - base_value);
      ++out.metrics_compared;
      if (delta == 0.0) continue;
      MetricDelta md;
      md.bench = bench;
      md.name = name;
      md.base = base_value;
      md.current = cur_value;
      md.score = delta / std::max(std::fabs(base_value), kAbsFloor);
      CategoryDelta& cd = per_category[cat];
      cd.category = cat;
      cd.score += md.score;
      cd.top.push_back(std::move(md));
    }
  };

  for (const auto& [bench, base_snap] : base.benches) {
    const auto cur_it = current.benches.find(bench);
    static const MetricsSnapshot kEmpty;
    const MetricsSnapshot& cur_snap = cur_it == current.benches.end() ? kEmpty : cur_it->second;
    score_kind(bench, base_snap.counters, cur_snap.counters);
    score_kind(bench, base_snap.gauges, cur_snap.gauges);
  }
  for (const auto& [bench, cur_snap] : current.benches) {
    if (base.benches.find(bench) != base.benches.end()) continue;
    static const MetricsSnapshot kEmpty;
    score_kind(bench, kEmpty.counters, cur_snap.counters);
    score_kind(bench, kEmpty.gauges, cur_snap.gauges);
  }

  for (auto& [cat, cd] : per_category) {
    std::sort(cd.top.begin(), cd.top.end(),
              [](const MetricDelta& a, const MetricDelta& b) { return a.score > b.score; });
    if (cd.top.size() > 3) cd.top.resize(3);
    out.ranked.push_back(std::move(cd));
  }
  std::sort(out.ranked.begin(), out.ranked.end(),
            [](const CategoryDelta& a, const CategoryDelta& b) { return a.score > b.score; });
  return out;
}

std::optional<double> compare_tolerance(const std::string& bench, const std::string& name) {
  // Per-rank splits depend on which worker won each dispatch race; the
  // world-total counters carry the comparable signal.
  if (is_noise(name) || drop_rank_label(name) != name) return std::nullopt;
  // Incumbent discovery order under the thread-per-rank supervisor changes
  // pruning, so even the MIP ledgers there legitimately wobble.
  if (bench == "e8_scaleout") return kLooseTolerance;
  const bool ledger = starts_with(name, "gpumip.gpu.") || starts_with(name, "gpumip.lp.") ||
                      starts_with(name, "gpumip.mip.");
  return ledger ? kTightTolerance : kLooseTolerance;
}

Comparison compare(const BenchDoc& base, const BenchDoc& current) {
  Comparison out;
  auto compare_kind = [&](const std::string& bench, const char* kind,
                          const std::map<std::string, double>& base_map,
                          const std::map<std::string, double>& cur_map) {
    for (const auto& [name, base_value] : base_map) {
      const std::optional<double> rel = compare_tolerance(bench, name);
      if (!rel) continue;
      const auto cur = cur_map.find(name);
      if (cur == cur_map.end()) {
        out.failures.push_back(bench + ": " + kind + " " + name + " missing from current run");
        continue;
      }
      ++out.compared;
      const double delta = std::fabs(cur->second - base_value);
      const double limit = std::max(*rel * std::fabs(base_value), kAbsFloor);
      if (delta > limit) {
        std::ostringstream line;
        line << bench << ": " << name << " = " << cur->second << " vs baseline " << base_value
             << " (|delta| " << delta << " > " << limit << ", tolerance " << *rel * 100
             << "%)";
        out.failures.push_back(line.str());
      }
    }
    for (const auto& [name, value] : cur_map) {
      if (base_map.count(name) == 0 && compare_tolerance(bench, name)) {
        out.warnings.push_back(bench + ": new " + kind + " " + name);
      }
    }
  };
  for (const auto& [bench, base_snap] : base.benches) {
    const auto cur = current.benches.find(bench);
    if (cur == current.benches.end()) {
      out.failures.push_back(bench + ": bench missing from current run");
      continue;
    }
    compare_kind(bench, "counter", base_snap.counters, cur->second.counters);
    compare_kind(bench, "gauge", base_snap.gauges, cur->second.gauges);
  }
  for (const auto& [bench, snap] : current.benches) {
    if (base.benches.count(bench) == 0) out.warnings.push_back(bench + ": new bench");
  }
  return out;
}

std::string format_comparison(const Comparison& comparison) {
  std::ostringstream out;
  for (const std::string& line : comparison.warnings) {
    out << "  warning: " << line << " (regenerate the baseline to start tracking it)\n";
  }
  if (comparison.failures.empty()) {
    out << "bench compare: " << comparison.compared << " metrics within tolerance ("
        << comparison.warnings.size() << " warning(s))\n";
    return out.str();
  }
  out << "bench compare: " << comparison.failures.size() << " regression(s) ("
      << comparison.compared << " metrics compared):\n";
  for (const std::string& line : comparison.failures) out << "  " << line << "\n";
  return out.str();
}

std::string format_profile(const Profile& profile) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(6);
  out << "claim categories (counter/gauge mass per paper claim):\n";
  for (const CategoryTotal& ct : profile.categories) {
    out << "  " << ct.category << ": " << ct.metrics << " metric(s), total " << ct.total
        << "\n";
  }
  if (profile.has_trace) {
    out << "timeline (gpumip-trace analysis):\n";
    out << "  makespan " << profile.trace.makespan_seconds << "s, "
        << profile.trace.critical_path.size() << " critical hop(s)\n";
    for (const tracetool::RankBreakdown& rb : profile.trace.ranks) {
      out << "  rank " << rb.rank << ": busy " << rb.busy_seconds << "s, blocked "
          << rb.blocked_seconds << "s, idle " << rb.idle_seconds << "s\n";
    }
  }
  if (profile.has_timeseries) {
    out << "time series: " << profile.timeseries_rows << " row(s) spanning "
        << profile.timeseries_span << "s\n";
  }
  return out.str();
}

std::string format_attribution(const Attribution& attribution) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(6);
  out << "attribution (" << attribution.metrics_compared << " metrics compared, "
      << attribution.ranked.size() << " categor(ies) moved):\n";
  int rank = 0;
  for (const CategoryDelta& cd : attribution.ranked) {
    out << "  #" << ++rank << " " << cd.category << " score " << cd.score << "\n";
    for (const MetricDelta& md : cd.top) {
      out << "       " << md.bench << ": " << md.name << " " << md.base << " -> " << md.current
          << " (score " << md.score << ")\n";
    }
  }
  if (attribution.ranked.empty()) out << "  (no attributable metric moved)\n";
  return out.str();
}

// ---- self-check fixtures ---------------------------------------------------

namespace {

/// Metrics v2 export exercising labels, families, and every histogram
/// field the parser folds away.
const char* kMetricsV2Fixture = R"json({
  "schema": "gpumip.metrics.v2",
  "enabled": true,
  "families": [
    "gpumip.lp.solves{method}"
  ],
  "counters": {
    "gpumip.gpu.xfer.h2d.bytes": 4096,
    "gpumip.lp.solves{method=pdhg}": 7,
    "gpumip.lp.solves{method=simplex}": 21,
    "gpumip.obs.trace.dropped": 5
  },
  "gauges": {
    "gpumip.mip.reuse.hit_rate": 0.75
  },
  "histograms": {
    "gpumip.lp.solve.seconds{method=simplex}": {"count": 21, "sum": 0.42, "min": 0.01,
      "max": 0.05, "mean": 0.02, "p50": 0.02, "p90": 0.04, "p99": 0.05}
  }
})json";

/// Two-bench baseline with known category masses.
const char* kBaselineFixture = R"json({
  "schema": "gpumip.bench-baseline.v1",
  "benches": {
    "e1": {
      "counters": {
        "gpumip.gpu.xfer.h2d.bytes": 1000,
        "gpumip.gpu.xfer.d2h.bytes": 500,
        "gpumip.lp.ops.refactor": 40,
        "gpumip.mip.cuts.generated": 12,
        "gpumip.obs.trace.dropped": 9
      },
      "gauges": {"gpumip.mip.reuse.hit_rate": 0.5}
    },
    "e8": {
      "counters": {
        "gpumip.simmpi.sent.bytes{rank=0}": 2048,
        "gpumip.supervisor.checkpoints": 3
      },
      "gauges": {"gpumip.simmpi.recv.idle_seconds{rank=1}": 1.25}
    }
  }
})json";

/// The committed-drill shape: same run with H2D volume doubled and one
/// benign 1% wobble elsewhere. Attribution must rank transfer first.
const char* kRegressionFixture = R"json({
  "schema": "gpumip.bench-baseline.v1",
  "benches": {
    "e1": {
      "counters": {
        "gpumip.gpu.xfer.h2d.bytes": 2000,
        "gpumip.gpu.xfer.d2h.bytes": 500,
        "gpumip.lp.ops.refactor": 40,
        "gpumip.mip.cuts.generated": 12,
        "gpumip.obs.trace.dropped": 999
      },
      "gauges": {"gpumip.mip.reuse.hit_rate": 0.505}
    },
    "e8": {
      "counters": {
        "gpumip.simmpi.sent.bytes{rank=0}": 2048,
        "gpumip.supervisor.checkpoints": 30
      },
      "gauges": {"gpumip.simmpi.recv.idle_seconds{rank=1}": 99.0}
    }
  }
})json";

/// Rank-aggregation pair: the per-rank byte split shuffles (race-dependent
/// dispatch) while the family total stays put; only the H2D move is real.
const char* kRankJitterBase = R"json({
  "schema": "gpumip.bench-baseline.v1",
  "benches": {
    "e8": {
      "counters": {
        "gpumip.simmpi.sent.bytes{rank=0}": 49,
        "gpumip.simmpi.sent.bytes{rank=1}": 322,
        "gpumip.gpu.xfer.h2d.bytes": 1000
      }
    }
  }
})json";

const char* kRankJitterCurrent = R"json({
  "schema": "gpumip.bench-baseline.v1",
  "benches": {
    "e8": {
      "counters": {
        "gpumip.simmpi.sent.bytes{rank=0}": 322,
        "gpumip.simmpi.sent.bytes{rank=1}": 49,
        "gpumip.gpu.xfer.h2d.bytes": 1100
      }
    }
  }
})json";

const char* kTimeSeriesFixture = R"json({
  "schema": "gpumip.timeseries.v1",
  "period": 0.001,
  "dropped": 0,
  "columns": [
    {"name": "gpumip.supervisor.dispatched", "kind": "counter"}
  ],
  "rows": [
    {"ts": 0.001, "sim": true, "values": [2]},
    {"ts": 0.002, "sim": true, "values": [3]},
    {"ts": 0.004, "sim": true, "values": [1]}
  ]
})json";

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

}  // namespace

bool run_self_check(std::ostream& out) {
  bool ok = true;
  auto expect = [&](bool cond, const std::string& what) {
    out << "  [" << (cond ? "PASS" : "FAIL") << "] " << what << "\n";
    if (!cond) ok = false;
  };

  std::string error;

  MetricsSnapshot snap;
  expect(parse_metrics(kMetricsV2Fixture, snap, error), "metrics v2 parses (" + error + ")");
  expect(snap.enabled && snap.schema == "gpumip.metrics.v2", "v2 schema + enabled decoded");
  expect(snap.counters.size() == 4 &&
             near(snap.counters.at("gpumip.lp.solves{method=pdhg}"), 7.0),
         "labeled counters decoded");
  expect(snap.histograms.size() == 1 &&
             near(snap.histograms.at("gpumip.lp.solve.seconds{method=simplex}").second, 0.42),
         "histogram folded to (count, sum)");

  expect(category_of("gpumip.gpu.xfer.h2d.bytes") == "transfer" &&
             category_of("gpumip.lp.ops.refactor") == "c3_basis" &&
             category_of("gpumip.mip.cuts.generated") == "c4_cuts" &&
             category_of("gpumip.gpu.alloc.calls") == "c5_memory" &&
             category_of("gpumip.lp.solves{method=pdhg}") == "c6_method" &&
             category_of("gpumip.lp.batch.occupancy") == "c7_batch" &&
             category_of("gpumip.simmpi.sent.bytes{rank=0}") == "c8_scale" &&
             category_of("gpumip.mip.nodes") == "other",
         "category mapping covers the claim families");
  expect(category_of("gpumip.obs.trace.dropped").empty() &&
             category_of("gpumip.obs.sampler.samples").empty() &&
             category_of("gpumip.simmpi.recv.idle_seconds{rank=1}").empty() &&
             category_of("gpumip.supervisor.checkpoints").empty(),
         "obs bookkeeping and host-timing noise excluded");

  BenchDoc base;
  BenchDoc regression;
  expect(parse_bench_doc(kBaselineFixture, base, error), "baseline parses (" + error + ")");
  expect(parse_bench_doc(kRegressionFixture, regression, error),
         "regression parses (" + error + ")");
  expect(base.benches.size() == 2, "two benches decoded");

  const Profile profile = build_profile(base, nullptr, nullptr);
  double transfer_mass = 0.0;
  for (const CategoryTotal& ct : profile.categories) {
    if (ct.category == "transfer") transfer_mass = ct.total;
  }
  expect(near(transfer_mass, 1500.0), "profile sums transfer mass 1500");

  const Attribution attribution = attribute(base, regression);
  expect(!attribution.ranked.empty(), "attribution found moved categories");
  expect(!attribution.ranked.empty() && attribution.ranked.front().category == "transfer",
         "doubled H2D volume ranks transfer first");
  expect(!attribution.ranked.empty() && !attribution.ranked.front().top.empty() &&
             attribution.ranked.front().top.front().name == "gpumip.gpu.xfer.h2d.bytes",
         "top contributor is the H2D byte counter");
  for (const CategoryDelta& cd : attribution.ranked) {
    for (const MetricDelta& md : cd.top) {
      expect(category_of(md.name) != "", "no excluded metric leaked into attribution");
    }
  }

  const Attribution clean = attribute(base, base);
  expect(clean.ranked.empty(), "identical runs attribute to nothing");

  // The comparator sees only the doubled H2D counter: the 1% reuse wobble
  // is inside the 2% ledger tolerance and every other move is noise.
  const Comparison drill = compare(base, regression);
  expect(drill.failures.size() == 1 &&
             drill.failures.front().find("gpumip.gpu.xfer.h2d.bytes") != std::string::npos,
         "compare fails the doubled H2D counter and nothing else");
  expect(compare(base, base).failures.empty(), "compare passes identical runs");

  // Rank shuffles between two correct runs must cancel in the family
  // total: opposing per-rank jitter scores zero, the real H2D move wins.
  BenchDoc jitter_base, jitter_cur;
  expect(parse_bench_doc(kRankJitterBase, jitter_base, error) &&
             parse_bench_doc(kRankJitterCurrent, jitter_cur, error),
         "rank-jitter fixtures parse (" + error + ")");
  const Attribution jittered = attribute(jitter_base, jitter_cur);
  expect(jittered.ranked.size() == 1 && jittered.ranked.front().category == "transfer",
         "opposing rank jitter aggregates away; only transfer moves");
  bool c8_seen = false;
  for (const CategoryDelta& cd : jittered.ranked) c8_seen |= cd.category == "c8_scale";
  expect(!c8_seen, "race-shuffled rank splits do not move c8_scale");

  TimeSeries series;
  expect(parse_timeseries(kTimeSeriesFixture, series, error),
         "time series parses (" + error + ")");
  expect(series.columns.size() == 1 && series.rows.size() == 3 && near(series.ts.back(), 0.004),
         "time-series columns and rows decoded");
  const Profile with_series = build_profile(base, nullptr, &series);
  expect(with_series.has_timeseries && near(with_series.timeseries_span, 0.003),
         "profile reports time-series span");

  // Degenerate inputs must be rejected, not misreported.
  MetricsSnapshot bad;
  expect(!parse_metrics("{\"schema\": \"gpumip.metrics.v1\", \"counters\": {}}", bad, error),
         "retired metrics v1 schema rejected");
  BenchDoc bad_doc;
  expect(!parse_bench_doc("{\"schema\": \"gpumip.bench-baseline.v1\"}", bad_doc, error),
         "baseline without benches rejected");
  TimeSeries bad_series;
  expect(!parse_timeseries(
             "{\"schema\": \"gpumip.timeseries.v1\", \"columns\": [], "
             "\"rows\": [{\"ts\": 0, \"values\": [1]}]}",
             bad_series, error),
         "row/column arity mismatch rejected");
  return ok;
}

}  // namespace gpumip::reporttool
