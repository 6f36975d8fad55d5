#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>

#include "json.hpp"

namespace gpumip::reporttool {

namespace {

using tracetool::JsonReader;
using tracetool::JsonValue;
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
  if (root.type != JsonValue::Type::kObject) {
    error = "metrics document is not an object";
    return false;
  }
  return number_map(root.find("counters"), out.counters, error, "counters") &&
         number_map(root.find("gauges"), out.gauges, error, "gauges");
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
  // Observability bookkeeping (trace-ring drops) depends on how much
  // tracing ran; idle seconds are wall-clock blocking time; quiesced-point
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
  const std::string schema = string_or(root.find("schema"), "");
  if (schema != "gpumip.metrics.v2") {
    error = "unexpected metrics schema '" + schema + "'";
    return false;
  }
  return snapshot_from(root, out, error);
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
  // pruning, so even the MIP ledgers there legitimately wobble. Pruning
  // itself wobbles past any useful tolerance: 64 runs on a 4-core host
  // gave 220-314 against a baseline of 226, and earlier runs as low as
  // 110. Every other e8 metric stayed within 25% of its baseline.
  if (bench == "e8_scaleout") {
    if (name == "gpumip.mip.tree.pruned") return std::nullopt;
    return kLooseTolerance;
  }
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

}  // namespace gpumip::reporttool
