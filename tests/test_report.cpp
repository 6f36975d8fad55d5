// Tests for the gpumip-report engine (tools/gpumip-report/report.hpp):
// document parsing (metrics v2, bench baselines), the claim-category
// mapping with its exclusion list, the baseline comparator's tolerance
// classes, two-run attribution ranking, and the live round trip — a real
// metrics export from the registry parsed back and attributed.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "report.hpp"

namespace gpumip {
namespace {

using reporttool::Attribution;
using reporttool::BenchDoc;
using reporttool::Comparison;
using reporttool::MetricsSnapshot;

BenchDoc one_bench(std::map<std::string, double> counters,
                   std::map<std::string, double> gauges = {},
                   const std::string& bench = "bench") {
  BenchDoc doc;
  MetricsSnapshot snap;
  snap.counters = std::move(counters);
  snap.gauges = std::move(gauges);
  doc.benches[bench] = std::move(snap);
  return doc;
}

TEST(ReportParse, MetricsV2DecodesAndV1IsRejected) {
  const std::string v1 = R"({
    "schema": "gpumip.metrics.v1", "enabled": true,
    "counters": {"gpumip.mip.nodes": 10}, "gauges": {}, "histograms": {}
  })";
  const std::string v2 = R"({
    "schema": "gpumip.metrics.v2", "enabled": true,
    "families": ["gpumip.lp.solves{method}"],
    "counters": {"gpumip.lp.solves{method=pdhg}": 3}, "gauges": {},
    "histograms": {"gpumip.lp.solve.seconds{method=pdhg}":
      {"count": 3, "sum": 0.3, "min": 0.1, "max": 0.1, "mean": 0.1,
       "p50": 0.1, "p90": 0.1, "p99": 0.1}}
  })";
  MetricsSnapshot snap;
  std::string error;
  EXPECT_FALSE(reporttool::parse_metrics(v1, snap, error));
  EXPECT_NE(error.find("gpumip.metrics.v1"), std::string::npos) << error;
  ASSERT_TRUE(reporttool::parse_metrics(v2, snap, error)) << error;
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.counters.at("gpumip.lp.solves{method=pdhg}"), 3.0);

  EXPECT_FALSE(reporttool::parse_metrics(
      R"({"schema": "gpumip.metrics.v3", "counters": {}})", snap, error));
  EXPECT_FALSE(reporttool::parse_metrics("[1, 2]", snap, error));
}

TEST(ReportParse, BenchDocDecodesEveryBenchAndNeedsOne) {
  const std::string doc = R"({
    "schema": "gpumip.bench-baseline.v1",
    "benches": {
      "e1": {"counters": {"gpumip.gpu.xfer.h2d.bytes": 1000, "gpumip.lp.ops.refactor": 40},
             "gauges": {"gpumip.mip.reuse.hit_rate": 0.5}},
      "e8": {"counters": {"gpumip.simmpi.sent.bytes{rank=0}": 2048},
             "gauges": {"gpumip.simmpi.recv.idle_seconds{rank=1}": 1.25}}
    }
  })";
  BenchDoc parsed;
  std::string error;
  ASSERT_TRUE(reporttool::parse_bench_doc(doc, parsed, error)) << error;
  ASSERT_EQ(parsed.benches.size(), 2u);
  EXPECT_EQ(parsed.benches.at("e1").counters.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.benches.at("e1").counters.at("gpumip.gpu.xfer.h2d.bytes"), 1000.0);
  EXPECT_DOUBLE_EQ(parsed.benches.at("e1").gauges.at("gpumip.mip.reuse.hit_rate"), 0.5);
  EXPECT_DOUBLE_EQ(parsed.benches.at("e8").counters.at("gpumip.simmpi.sent.bytes{rank=0}"),
                   2048.0);
  EXPECT_DOUBLE_EQ(
      parsed.benches.at("e8").gauges.at("gpumip.simmpi.recv.idle_seconds{rank=1}"), 1.25);
  // A decoded document compares clean against itself.
  EXPECT_TRUE(reporttool::compare(parsed, parsed).failures.empty());

  // No benches at all is rejected, not read as an empty (always-clean) run.
  for (const char* empty : {R"({"schema": "gpumip.bench-baseline.v1"})",
                            R"({"schema": "gpumip.bench-baseline.v1", "benches": {}})"}) {
    EXPECT_FALSE(reporttool::parse_bench_doc(empty, parsed, error)) << empty;
    EXPECT_NE(error.find("benches"), std::string::npos) << error;
  }
  EXPECT_FALSE(reporttool::parse_bench_doc(
      R"({"schema": "gpumip.metrics.v2", "benches": {"e1": {}}})", parsed, error));
}

TEST(ReportCategories, MappingAndExclusions) {
  EXPECT_EQ(reporttool::category_of("gpumip.gpu.xfer.h2d.bytes"), "transfer");
  EXPECT_EQ(reporttool::category_of("gpumip.lp.ops.refactor"), "c3_basis");
  EXPECT_EQ(reporttool::category_of("gpumip.mip.cuts.rounds"), "c4_cuts");
  EXPECT_EQ(reporttool::category_of("gpumip.gpu.alloc.calls"), "c5_memory");
  EXPECT_EQ(reporttool::category_of("gpumip.mip.reuse.hit_rate"), "c5_memory");
  EXPECT_EQ(reporttool::category_of("gpumip.lp.method.chosen{method=pdhg}"), "c6_method");
  EXPECT_EQ(reporttool::category_of("gpumip.lp.solves{method=pdhg}"), "c6_method");
  EXPECT_EQ(reporttool::category_of("gpumip.lp.batch.waves{method=simplex}"), "c7_batch");
  EXPECT_EQ(reporttool::category_of("gpumip.supervisor.dispatched{rank=2}"), "c8_scale");
  EXPECT_EQ(reporttool::category_of("gpumip.mip.incumbents"), "other");
  // Exclusions: observability bookkeeping can never trip attribution,
  // nor can host-timing noise.
  EXPECT_EQ(reporttool::category_of("gpumip.obs.trace.dropped"), "");
  EXPECT_EQ(reporttool::category_of("gpumip.simmpi.recv.idle_seconds{rank=3}"), "");
  EXPECT_EQ(reporttool::category_of("gpumip.supervisor.checkpoints"), "");
}

TEST(ReportAttribution, DoubledTransferOutranksNoiseAndExclusionsAreSilent) {
  const BenchDoc base = one_bench({{"gpumip.gpu.xfer.h2d.bytes", 1000.0},
                                   {"gpumip.lp.ops.refactor", 100.0},
                                   {"gpumip.obs.trace.dropped", 1.0}});
  const BenchDoc cur = one_bench({{"gpumip.gpu.xfer.h2d.bytes", 2000.0},
                                  {"gpumip.lp.ops.refactor", 101.0},
                                  {"gpumip.obs.trace.dropped", 50000.0}});
  const Attribution a = reporttool::attribute(base, cur);
  ASSERT_EQ(a.ranked.size(), 2u);
  EXPECT_EQ(a.ranked[0].category, "transfer");
  EXPECT_NEAR(a.ranked[0].score, 1.0, 1e-12);
  EXPECT_EQ(a.ranked[1].category, "c3_basis");
  ASSERT_FALSE(a.ranked[0].top.empty());
  EXPECT_EQ(a.ranked[0].top[0].name, "gpumip.gpu.xfer.h2d.bytes");
}

TEST(ReportAttribution, MissingMetricScoresAgainstZeroAndIdenticalRunsAreClean) {
  const BenchDoc base = one_bench({{"gpumip.mip.cuts.generated", 10.0}});
  const BenchDoc cur = one_bench({{"gpumip.lp.batch.solves{method=pdhg}", 5.0}});
  const Attribution a = reporttool::attribute(base, cur);
  // Only the vanished cuts score; the appeared batch metric has no baseline.
  ASSERT_EQ(a.ranked.size(), 1u);
  EXPECT_EQ(a.ranked[0].category, "c4_cuts");
  EXPECT_NEAR(a.ranked[0].score, 1.0, 1e-12);
  EXPECT_TRUE(reporttool::attribute(base, base).ranked.empty());
}

TEST(ReportAttribution, NewCounterDoesNotOutrankADoubledTransfer) {
  const BenchDoc base = one_bench({{"gpumip.gpu.xfer.h2d.bytes", 1000.0}});
  const BenchDoc cur = one_bench({{"gpumip.gpu.xfer.h2d.bytes", 2000.0},
                                  {"gpumip.mip.dive.lps", 40.0}});
  const Attribution a = reporttool::attribute(base, cur);
  ASSERT_EQ(a.ranked.size(), 1u);
  EXPECT_EQ(a.ranked[0].category, "transfer");
}

TEST(ReportAttribution, RankSplitsAggregateBeforeScoring) {
  // Which rank serves which node is race-dependent, so the per-rank
  // shards shuffle between two correct runs; only the summed family
  // total is replay-stable. An opposing shuffle must score zero while a
  // real (if small) transfer move still registers.
  const BenchDoc base = one_bench({{"gpumip.simmpi.sent.bytes{rank=0}", 49.0},
                                   {"gpumip.simmpi.sent.bytes{rank=1}", 322.0},
                                   {"gpumip.gpu.xfer.h2d.bytes", 1000.0}});
  const BenchDoc cur = one_bench({{"gpumip.simmpi.sent.bytes{rank=0}", 322.0},
                                  {"gpumip.simmpi.sent.bytes{rank=1}", 49.0},
                                  {"gpumip.gpu.xfer.h2d.bytes", 1010.0}});
  const Attribution a = reporttool::attribute(base, cur);
  ASSERT_EQ(a.ranked.size(), 1u);
  EXPECT_EQ(a.ranked.front().category, "transfer");

  // A genuine total movement still lands in c8_scale, under the
  // label-stripped family name.
  const BenchDoc grown = one_bench({{"gpumip.simmpi.sent.bytes{rank=0}", 400.0},
                                    {"gpumip.simmpi.sent.bytes{rank=1}", 713.0},
                                    {"gpumip.gpu.xfer.h2d.bytes", 1000.0}});
  const Attribution b = reporttool::attribute(base, grown);
  ASSERT_EQ(b.ranked.size(), 1u);
  EXPECT_EQ(b.ranked.front().category, "c8_scale");
  ASSERT_FALSE(b.ranked.front().top.empty());
  EXPECT_EQ(b.ranked.front().top.front().name, "gpumip.simmpi.sent.bytes");
}

// ---- baseline comparator --------------------------------------------------

/// Compares a one-metric run of `bench` that moved from `base` to `current`.
Comparison compare_one(const std::string& bench, const std::string& name, double base,
                       double current) {
  return reporttool::compare(one_bench({{name, base}}, {}, bench),
                             one_bench({{name, current}}, {}, bench));
}

TEST(ReportCompare, LedgerFamiliesGetTheTightTolerance) {
  for (const char* name :
       {"gpumip.gpu.xfer.h2d.bytes", "gpumip.lp.ops.refactor", "gpumip.mip.nodes"}) {
    EXPECT_EQ(reporttool::compare_tolerance("e1_strategies", name), 0.02) << name;
    EXPECT_TRUE(compare_one("e1_strategies", name, 1000.0, 1020.0).failures.empty()) << name;
    EXPECT_TRUE(compare_one("e1_strategies", name, 1000.0, 980.0).failures.empty()) << name;
    const Comparison over = compare_one("e1_strategies", name, 1000.0, 1021.0);
    ASSERT_EQ(over.failures.size(), 1u) << name;
    EXPECT_NE(over.failures[0].find(name), std::string::npos) << over.failures[0];
    EXPECT_EQ(over.compared, 1);
  }
}

TEST(ReportCompare, EverythingElseGetsTheLooseTolerance) {
  const std::string name = "gpumip.simmpi.sent.bytes";
  EXPECT_EQ(reporttool::compare_tolerance("e1_strategies", name), 0.25);
  EXPECT_TRUE(compare_one("e1_strategies", name, 1000.0, 1250.0).failures.empty());
  EXPECT_EQ(compare_one("e1_strategies", name, 1000.0, 1251.0).failures.size(), 1u);
  // Gauges are compared like counters.
  const Comparison gauge = reporttool::compare(
      one_bench({}, {{"gpumip.supervisor.busy_fraction", 0.8}}, "e1_strategies"),
      one_bench({}, {{"gpumip.supervisor.busy_fraction", 0.5}}, "e1_strategies"));
  EXPECT_EQ(gauge.failures.size(), 1u);
}

TEST(ReportCompare, ScaleoutBenchIsLooseForEveryMetric) {
  // Incumbent discovery order under the supervisor changes pruning, so
  // even the MIP ledger gets 25% in e8_scaleout.
  const std::string name = "gpumip.mip.tree.pushed";
  EXPECT_EQ(reporttool::compare_tolerance("e8_scaleout", name), 0.25);
  EXPECT_TRUE(compare_one("e8_scaleout", name, 200.0, 250.0).failures.empty());
  EXPECT_EQ(compare_one("e8_scaleout", name, 200.0, 251.0).failures.size(), 1u);
  EXPECT_EQ(compare_one("e1_strategies", name, 200.0, 250.0).failures.size(), 1u);

  // The pruned count itself leaves that band between correct runs, so
  // e8_scaleout skips it; every other bench still holds it to 2%.
  const std::string pruned = "gpumip.mip.tree.pruned";
  EXPECT_FALSE(reporttool::compare_tolerance("e8_scaleout", pruned).has_value());
  const Comparison skipped = compare_one("e8_scaleout", pruned, 226.0, 110.0);
  EXPECT_TRUE(skipped.failures.empty());
  EXPECT_EQ(skipped.compared, 0);
  EXPECT_EQ(reporttool::compare_tolerance("e1_strategies", pruned), 0.02);
  for (const char* other : {"gpumip.mip.incumbent.updates", "gpumip.supervisor.dispatched",
                            "gpumip.simmpi.bytes"}) {
    EXPECT_EQ(reporttool::compare_tolerance("e8_scaleout", other), 0.25) << other;
  }
}

TEST(ReportCompare, AbsoluteFloorAppliesNearZero) {
  const std::string name = "gpumip.gpu.xfer.d2h.bytes";
  EXPECT_TRUE(compare_one("e1_strategies", name, 0.0, 1e-10).failures.empty());
  EXPECT_EQ(compare_one("e1_strategies", name, 0.0, 1e-8).failures.size(), 1u);
}

TEST(ReportCompare, NoiseAndRankSplitsAreSkipped) {
  // gpumip.obs.sampler.samples is a stale key of the committed baseline:
  // its exporter is gone, and the obs.* noise rule is what skips it.
  for (const char* name :
       {"gpumip.obs.trace.dropped", "gpumip.obs.sampler.samples",
        "gpumip.simmpi.recv.idle_seconds", "gpumip.simmpi.recv.idle_seconds{rank=1}",
        "gpumip.supervisor.checkpoints", "gpumip.simmpi.sent.bytes{rank=3}",
        "gpumip.supervisor.dispatched{method=pdhg,rank=12}"}) {
    EXPECT_FALSE(reporttool::compare_tolerance("e1_strategies", name).has_value()) << name;
    const Comparison c = compare_one("e1_strategies", name, 10.0, 1e6);
    EXPECT_TRUE(c.failures.empty()) << name;
    EXPECT_EQ(c.compared, 0) << name;
  }
  // The noise list is the one attribution excludes; rank splits are not
  // noise there (they aggregate into their family total instead).
  EXPECT_EQ(reporttool::category_of("gpumip.supervisor.checkpoints"), "");
  EXPECT_EQ(reporttool::category_of("gpumip.simmpi.sent.bytes{rank=3}"), "c8_scale");
  // A labeled name without a rank pair is compared.
  EXPECT_EQ(reporttool::compare_tolerance("e1_strategies", "gpumip.lp.solves{method=pdhg}"),
            0.02);
}

TEST(ReportCompare, MissingFailsAndNewOnlyWarns) {
  BenchDoc base = one_bench({{"gpumip.mip.nodes", 10.0}, {"gpumip.lp.ops.refactor", 4.0}}, {},
                            "e1_strategies");
  base.benches["e3_basis_updates"] = base.benches["e1_strategies"];
  BenchDoc current = one_bench({{"gpumip.mip.nodes", 10.0}, {"gpumip.mip.cuts.rounds", 2.0}},
                               {}, "e1_strategies");
  current.benches["e7_batching"] = current.benches["e1_strategies"];

  const Comparison c = reporttool::compare(base, current);
  ASSERT_EQ(c.failures.size(), 2u);
  EXPECT_NE(c.failures[0].find("gpumip.lp.ops.refactor missing"), std::string::npos)
      << c.failures[0];
  EXPECT_NE(c.failures[1].find("e3_basis_updates: bench missing"), std::string::npos)
      << c.failures[1];
  ASSERT_EQ(c.warnings.size(), 2u);
  EXPECT_NE(c.warnings[0].find("new counter gpumip.mip.cuts.rounds"), std::string::npos)
      << c.warnings[0];
  EXPECT_NE(c.warnings[1].find("e7_batching: new bench"), std::string::npos) << c.warnings[1];

  // New metrics alone never fail the compare.
  const Comparison grown = reporttool::compare(one_bench({{"gpumip.mip.nodes", 10.0}}),
                                               one_bench({{"gpumip.mip.nodes", 10.0},
                                                          {"gpumip.mip.cuts.rounds", 2.0}}));
  EXPECT_TRUE(grown.failures.empty());
  EXPECT_EQ(grown.warnings.size(), 1u);
  const std::string text = reporttool::format_comparison(grown);
  EXPECT_NE(text.find("1 metrics within tolerance (1 warning(s))"), std::string::npos) << text;
}

TEST(ReportLive, RegistryExportParsesAndAttributes) {
  // A real registry export (v2, labeled names included) must flow through
  // parse_run -> attribute without hand-editing.
  obs::counter("gpumip.test_report.live.xfer").reset();
  const std::string before = obs::Registry::instance().to_json();
  obs::counter("gpumip.test_report.live.xfer").add(100);
  const std::string after = obs::Registry::instance().to_json();

  BenchDoc base;
  BenchDoc cur;
  std::string error;
  ASSERT_TRUE(reporttool::parse_run(before, base, error)) << error;
  ASSERT_TRUE(reporttool::parse_run(after, cur, error)) << error;
  const Attribution a = reporttool::attribute(base, cur);
  if (obs::kObsEnabled) {
    bool found = false;
    for (const auto& cd : a.ranked) {
      for (const auto& md : cd.top) {
        if (md.name == "gpumip.test_report.live.xfer") found = true;
      }
    }
    EXPECT_TRUE(found) << reporttool::format_attribution(a);
  }
}

}  // namespace
}  // namespace gpumip
