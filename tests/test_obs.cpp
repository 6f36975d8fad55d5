// Tests for the observability layer (src/obs): instrument arithmetic, the
// process-wide registry, span nesting, thread/rank safety of concurrent
// increments under the simmpi schedule fuzzer, JSON export round-trip, and
// the clean-failure path of export_json.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "parallel/simmpi.hpp"
#include "support/error.hpp"

namespace gpumip {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;

TEST(ObsCounter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAddAndRunningMax) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set_max(0.5);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, CountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty: reported as 0, not +inf
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.record(4.0);
  h.record(16.0);
  h.record(1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 21.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 16.0);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
}

TEST(ObsHistogram, BucketResolutionQuantiles) {
  Histogram h;
  // 100 values in (0.5, 1], 10 in (512, 1024]: p50 resolves to the small
  // bucket's upper edge, p99+ to the large one, both clamped into
  // [min, max] of the recorded data.
  for (int i = 0; i < 100; ++i) h.record(1.0);
  for (int i = 0; i < 10; ++i) h.record(1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_GE(h.quantile(0.995), 512.0);
  EXPECT_LE(h.quantile(0.995), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 1000.0);
}

TEST(ObsHistogram, NonpositiveValuesLandInZeroBucket) {
  Histogram h;
  h.record(0.0);
  h.record(-5.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
}

TEST(ObsRegistry, SameNameSameInstrumentDistinctKinds) {
  Counter& c1 = obs::counter("test.obs.registry.shared");
  Counter& c2 = obs::counter("test.obs.registry.shared");
  EXPECT_EQ(&c1, &c2);
  // The same name may exist independently as each instrument kind.
  Gauge& g = obs::gauge("test.obs.registry.shared");
  Histogram& h = obs::histogram("test.obs.registry.shared");
  c1.add(3);
  g.set(1.25);
  h.record(2.0);
  EXPECT_EQ(c2.value(), 3u);
  EXPECT_DOUBLE_EQ(g.value(), 1.25);
  EXPECT_EQ(h.count(), 1u);

  EXPECT_EQ(obs::Registry::instance().find_counter("test.obs.registry.shared"), &c1);
}

TEST(ObsRegistry, ReferencesSurviveFurtherRegistration) {
  Counter& before = obs::counter("test.obs.stable.a");
  before.add(7);
  // Force rehash-like pressure: many new registrations must not move the
  // earlier instrument (call sites cache references).
  for (int i = 0; i < 200; ++i) {
    obs::counter("test.obs.stable.filler." + std::to_string(i)).add(1);
  }
  EXPECT_EQ(obs::counter("test.obs.stable.a").value(), 7u);
  EXPECT_EQ(&obs::counter("test.obs.stable.a"), &before);
}

TEST(ObsLabels, FlattenSortsKeysAndSanitizesValues) {
  EXPECT_EQ(obs::labeled_name("test.obs.flat", {}), "test.obs.flat");
  EXPECT_EQ(obs::labeled_name("test.obs.flat", {{"method", "pdhg"}}),
            "test.obs.flat{method=pdhg}");
  // Label order at the call site does not matter: keys are sorted.
  EXPECT_EQ(obs::labeled_name("test.obs.flat", {{"rank", "3"}, {"method", "pdhg"}}),
            "test.obs.flat{method=pdhg,rank=3}");
  // Values are free-form but syntax bytes are sanitized to '_'.
  EXPECT_EQ(obs::labeled_name("test.obs.flat", {{"instance", "a=b,c{d}"}}),
            "test.obs.flat{instance=a_b_c_d_}");
  EXPECT_EQ(obs::family_name("test.obs.flat", {{"rank", "3"}, {"method", "pdhg"}}),
            "test.obs.flat{method,rank}");
}

TEST(ObsLabels, BadKeysAreRejected) {
  for (const char* key : {"", "Rank", "rank3", "ra-nk", "ra.nk"}) {
    EXPECT_FALSE(obs::valid_label_key(key)) << key;
    EXPECT_THROW(obs::labeled_name("test.obs.badkey", {{key, "v"}}), Error) << key;
  }
  EXPECT_TRUE(obs::valid_label_key("rank"));
  EXPECT_TRUE(obs::valid_label_key("wave_kind"));
  EXPECT_THROW(obs::labeled_name("test.obs.dupkey", {{"rank", "1"}, {"rank", "2"}}), Error);
}

TEST(ObsLabels, LabeledLookupIsStableAndOrderInsensitive) {
  Counter& c1 = obs::counter("test.obs.labeled.c", {{"method", "pdhg"}, {"rank", "1"}});
  Counter& c2 = obs::counter("test.obs.labeled.c", {{"rank", "1"}, {"method", "pdhg"}});
  EXPECT_EQ(&c1, &c2);
  Counter& other = obs::counter("test.obs.labeled.c", {{"method", "pdhg"}, {"rank", "2"}});
  EXPECT_NE(&c1, &other);
  c1.add(4);
  other.add(1);
  EXPECT_EQ(c2.value(), 4u);

  // Labeled instruments are found under their flattened names, and the
  // export's family index records the documentation form.
  EXPECT_EQ(obs::Registry::instance().find_counter("test.obs.labeled.c{method=pdhg,rank=1}"),
            &c1);
  const std::string json = obs::Registry::instance().to_json();
  const std::size_t family = json.find("\"test.obs.labeled.c{method,rank}\"");
  ASSERT_NE(family, std::string::npos) << json;
  EXPECT_GT(family, json.find("\"families\": ["));
  EXPECT_LT(family, json.find("\"counters\": {"));
}

TEST(ObsLabels, ReferencesSurviveLabelSetChurn) {
  Counter& before = obs::counter("test.obs.labeled.stable", {{"method", "simplex"}});
  before.add(7);
  // Registering many sibling label sets must not move the earlier
  // instrument (call sites cache labeled references too).
  for (int i = 0; i < 200; ++i) {
    obs::counter("test.obs.labeled.stable", {{"method", "m" + std::string(1, 'a' + i % 26)},
                                             {"rank", std::to_string(i)}})
        .add(1);
  }
  EXPECT_EQ(obs::counter("test.obs.labeled.stable", {{"method", "simplex"}}).value(), 7u);
  EXPECT_EQ(&obs::counter("test.obs.labeled.stable", {{"method", "simplex"}}), &before);
}

TEST(ObsLabels, GaugeAndHistogramKindsSupportLabels) {
  Gauge& g = obs::gauge("test.obs.labeled.g", {{"rank", "0"}});
  Histogram& h = obs::histogram("test.obs.labeled.h", {{"method", "pdhg"}});
  g.set(2.5);
  h.record(4.0);
  EXPECT_DOUBLE_EQ(obs::gauge("test.obs.labeled.g", {{"rank", "0"}}).value(), 2.5);
  EXPECT_EQ(obs::histogram("test.obs.labeled.h", {{"method", "pdhg"}}).count(), 1u);
  const std::string json = obs::to_json();
  EXPECT_NE(json.find("\"test.obs.labeled.g{rank=0}\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.labeled.h{method=pdhg}\""), std::string::npos);
}

TEST(ObsLabels, LabeledMacrosMatchCompileTimeSwitch) {
  Counter& c = obs::counter("test.obs.labeled.macro", {{"method", "pdhg"}});
  const std::uint64_t before = c.value();
  GPUMIP_OBS_COUNT_L("test.obs.labeled.macro", {"method", "pdhg"});
  GPUMIP_OBS_ADD_L("test.obs.labeled.macro", 9, {"method", "pdhg"});
  GPUMIP_OBS_RECORD_L("test.obs.labeled.macro.h", 2.0, {"method", "pdhg"}, {"rank", "0"});
  if (obs::kObsEnabled) {
    EXPECT_EQ(c.value(), before + 10);
    EXPECT_EQ(obs::histogram("test.obs.labeled.macro.h", {{"method", "pdhg"}, {"rank", "0"}})
                  .count(),
              1u);
  } else {
    EXPECT_EQ(c.value(), before);  // macros are no-ops in OFF builds
  }
}

// Concurrent creation of *distinct* label sets in one family from many
// ranks: registration takes the unique lock, lookups the shared lock; the
// TSan preset runs this test too.
TEST(ObsLabels, ConcurrentLabelSetCreationIsSafe) {
  constexpr int kRanks = 8;
  constexpr int kRounds = 50;
  parallel::RunOptions options;
  options.schedule.fuzz = true;
  options.schedule.seed = 1234;
  parallel::run_ranks(kRanks, [&](parallel::Comm& comm) {
    const std::string rank_str = std::to_string(comm.rank());
    for (int i = 0; i < kRounds; ++i) {
      // Every rank races both on creating its own label sets and on
      // looking up a shared one.
      obs::counter("test.obs.labeled.race",
                   {{"rank", rank_str}, {"round", std::to_string(i)}})
          .add(1);
      obs::counter("test.obs.labeled.race", {{"rank", "shared"}}).add(1);
    }
  }, options);
  EXPECT_EQ(obs::counter("test.obs.labeled.race", {{"rank", "shared"}}).value(),
            static_cast<std::uint64_t>(kRanks) * kRounds);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(obs::counter("test.obs.labeled.race",
                           {{"rank", std::to_string(r)}, {"round", "0"}})
                  .value(),
              1u);
  }
}

TEST(ObsSpan, NestingDepthIsTracked) {
  EXPECT_EQ(obs::Span::active_depth(), 0);
  {
    obs::Span outer("test.obs.span.outer");
    EXPECT_EQ(outer.depth(), 1);
    EXPECT_EQ(obs::Span::active_depth(), 1);
    {
      obs::Span inner("test.obs.span.inner");
      EXPECT_EQ(inner.depth(), 2);
      EXPECT_EQ(obs::Span::active_depth(), 2);
    }
    EXPECT_EQ(obs::Span::active_depth(), 1);
  }
  EXPECT_EQ(obs::Span::active_depth(), 0);
  EXPECT_EQ(obs::histogram("test.obs.span.outer").count(), 1u);
  EXPECT_EQ(obs::histogram("test.obs.span.inner").count(), 1u);
  EXPECT_GE(obs::histogram("test.obs.span.outer").min(), 0.0);
}

TEST(ObsMacros, MatchCompileTimeSwitch) {
  Counter& c = obs::counter("test.obs.macro.count");
  const std::uint64_t before = c.value();
  GPUMIP_OBS_COUNT("test.obs.macro.count");
  GPUMIP_OBS_ADD("test.obs.macro.count", 9);
  if (obs::kObsEnabled) {
    EXPECT_EQ(c.value(), before + 10);
  } else {
    EXPECT_EQ(c.value(), before);  // macros are no-ops in OFF builds
  }
}

// Concurrent increments from simmpi ranks under the schedule fuzzer: the
// fuzzer injects yield points and perturbs delivery, so the rank threads
// interleave differently per seed while the totals must stay exact.
TEST(ObsConcurrency, RankSafeUnderScheduleFuzz) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 200;
  Counter& hits = obs::counter("test.obs.concurrent.hits");
  Histogram& dist = obs::histogram("test.obs.concurrent.dist");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t dist0 = dist.count();

  for (std::uint64_t seed : {1u, 42u, 7919u}) {
    parallel::RunOptions options;
    options.schedule.fuzz = true;
    options.schedule.seed = seed;
    parallel::run_ranks(kRanks, [&](parallel::Comm& comm) {
      for (int i = 0; i < kRounds; ++i) {
        hits.add(1);
        dist.record(static_cast<double>(comm.rank() + 1));
        if (comm.rank() > 0) comm.send(0, 1, std::vector<std::byte>(8));
      }
      if (comm.rank() == 0) {
        for (int m = 0; m < (kRanks - 1) * kRounds; ++m) comm.recv();
      }
    }, options);
  }

  EXPECT_EQ(hits.value() - hits0, 3ull * kRanks * kRounds);
  EXPECT_EQ(dist.count() - dist0, 3ull * kRanks * kRounds);
  EXPECT_DOUBLE_EQ(dist.min(), 1.0);
  EXPECT_DOUBLE_EQ(dist.max(), static_cast<double>(kRanks));
}

TEST(ObsJson, ExportRoundTrip) {
  obs::counter("test.obs.json.counter").add(5);
  obs::gauge("test.obs.json.gauge").set(0.75);
  obs::histogram("test.obs.json.hist").record(8.0);

  const std::string json = obs::to_json();
  EXPECT_NE(json.find("\"schema\": \"gpumip.metrics.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"families\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.counter\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.gauge\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);

  const std::string path =
      (std::filesystem::temp_directory_path() / "gpumip_test_obs_export.json").string();
  obs::export_json(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::filesystem::remove(path);
  EXPECT_EQ(contents, json);  // to_json() ends with a trailing newline
}

TEST(ObsJson, ExportFailsCleanlyOnUnwritablePath) {
  try {
    obs::export_json("/nonexistent-dir-gpumip/metrics.json");
    FAIL() << "export_json should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_NE(std::string(e.what()).find("metrics"), std::string::npos);
  }
}

TEST(ObsJson, DisabledFlagReflectsBuild) {
  const std::string json = obs::to_json();
  const std::string expect = obs::kObsEnabled ? "\"enabled\": true" : "\"enabled\": false";
  EXPECT_NE(json.find(expect), std::string::npos);
}

}  // namespace
}  // namespace gpumip
