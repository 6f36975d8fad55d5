#include <gtest/gtest.h>

#include <vector>

#include "gpu/device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace gpumip::gpu {
namespace {

CostModelConfig small_config() {
  CostModelConfig cfg;
  cfg.memory_bytes = 1 << 20;  // 1 MiB device for OOM tests
  return cfg;
}

TEST(CostModel, TransferHasLatencyFloor) {
  CostModelConfig cfg;
  EXPECT_GT(transfer_seconds(cfg, 0), 0.0);
  EXPECT_NEAR(transfer_seconds(cfg, 0), cfg.pcie_latency, 1e-12);
  // Doubling bytes roughly doubles the bandwidth term.
  const double t1 = transfer_seconds(cfg, 1 << 26) - cfg.pcie_latency;
  const double t2 = transfer_seconds(cfg, 1 << 27) - cfg.pcie_latency;
  EXPECT_NEAR(t2 / t1, 2.0, 1e-9);
}

TEST(CostModel, SparseKernelsAreSlowerThanDense) {
  CostModelConfig cfg;
  const double flops = 1e9;
  const double dense = kernel_seconds(cfg, KernelCost::dense(flops, 1e6));
  const double sparse = kernel_seconds(cfg, KernelCost::sparse_irregular(flops, 1e6));
  EXPECT_GT(sparse, dense * 3.0);  // efficiency gap + divergence penalty
}

TEST(CostModel, LaunchOverheadDominatesTinyKernels) {
  CostModelConfig cfg;
  const double t = kernel_seconds(cfg, KernelCost::dense(10.0, 10.0));
  EXPECT_NEAR(t, cfg.launch_overhead, cfg.launch_overhead * 0.01);
}

TEST(CostModel, OccupancyScalesThroughput) {
  CostModelConfig cfg;
  KernelCost full = KernelCost::dense(1e10, 0);
  KernelCost half = full;
  half.occupancy = 0.5;
  EXPECT_NEAR(kernel_seconds(cfg, half) / kernel_seconds(cfg, full), 2.0, 0.01);
}

TEST(Device, AllocTracksCapacityAndPeak) {
  Device dev(small_config());
  auto a = dev.alloc(512 * 1024, "a");
  EXPECT_EQ(dev.stats().allocated_bytes, 512u * 1024);
  {
    auto b = dev.alloc(256 * 1024, "b");
    EXPECT_EQ(dev.stats().allocated_bytes, 768u * 1024);
  }
  EXPECT_EQ(dev.stats().allocated_bytes, 512u * 1024);
  EXPECT_EQ(dev.stats().peak_allocated_bytes, 768u * 1024);
}

TEST(Device, OverCapacityThrows) {
  Device dev(small_config());
  auto a = dev.alloc(900 * 1024);
  EXPECT_THROW(dev.alloc(200 * 1024), DeviceOutOfMemory);
  // After the failed alloc the accounting is unchanged.
  EXPECT_EQ(dev.stats().allocated_bytes, 900u * 1024);
}

TEST(Device, BufferMoveTransfersOwnership) {
  Device dev(small_config());
  DeviceBuffer a = dev.alloc(1024);
  DeviceBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(dev.stats().allocated_bytes, 1024u);
}

TEST(Device, RoundTripCopyPreservesData) {
  Device dev;
  std::vector<double> host = {1.0, 2.0, 3.0, 4.5};
  auto buf = dev.alloc_doubles(host.size());
  dev.upload(0, buf, host);
  std::vector<double> back(host.size(), 0.0);
  dev.download(0, buf, back);
  EXPECT_EQ(host, back);
  EXPECT_EQ(dev.stats().transfers_h2d, 1u);
  EXPECT_EQ(dev.stats().transfers_d2h, 1u);
  EXPECT_EQ(dev.stats().bytes_h2d, host.size() * sizeof(double));
}

TEST(Device, OutOfRangeCopyThrows) {
  Device dev;
  auto buf = dev.alloc_doubles(4);
  std::vector<double> host(8, 1.0);
  EXPECT_THROW(dev.upload(0, buf, host), Error);
}

TEST(Device, KernelsOnOneStreamSerialize) {
  Device dev;
  KernelCost cost = KernelCost::dense(7e9, 0);  // ~1 ms each
  dev.launch(0, cost, {});
  dev.launch(0, cost, {});
  const double t = dev.synchronize();
  const double one = kernel_seconds(dev.config(), cost);
  EXPECT_NEAR(t, 2 * one, one * 0.01);
}

TEST(Device, KernelsOnTwoStreamsOverlap) {
  Device dev;
  const StreamId s1 = dev.create_stream();
  KernelCost cost = KernelCost::dense(7e9, 0);
  dev.launch(0, cost, {});
  dev.launch(s1, cost, {});
  const double t = dev.synchronize();
  const double one = kernel_seconds(dev.config(), cost);
  EXPECT_NEAR(t, one, one * 0.01);
}

TEST(Device, ParallelSlotsBoundOverlap) {
  CostModelConfig cfg;
  cfg.parallel_slots = 2;
  Device dev(cfg);
  std::vector<StreamId> streams = {0};
  for (int i = 0; i < 3; ++i) streams.push_back(dev.create_stream());
  KernelCost cost = KernelCost::dense(7e9, 0);
  for (StreamId s : streams) dev.launch(s, cost, {});
  const double t = dev.synchronize();
  const double one = kernel_seconds(dev.config(), cost);
  // 4 kernels, 2 slots -> 2 serial waves.
  EXPECT_NEAR(t, 2 * one, one * 0.05);
}

TEST(Device, TransfersUseSerialCopyEngines) {
  Device dev;
  auto buf = dev.alloc_doubles(1 << 20);
  std::vector<double> host(1 << 20, 1.0);
  const StreamId s1 = dev.create_stream();
  dev.upload(0, buf, host);
  dev.upload(s1, buf, host);  // same direction: must queue behind engine
  const double t = dev.synchronize();
  const double one = transfer_seconds(dev.config(), host.size() * sizeof(double));
  EXPECT_NEAR(t, 2 * one, one * 0.01);
}

TEST(Device, EventsOrderAcrossStreams) {
  Device dev;
  const StreamId s1 = dev.create_stream();
  KernelCost cost = KernelCost::dense(7e9, 0);
  dev.launch(0, cost, {});
  Event e = dev.record(0);
  dev.wait(s1, e);
  dev.launch(s1, cost, {});
  const double one = kernel_seconds(dev.config(), cost);
  EXPECT_NEAR(dev.synchronize(), 2 * one, one * 0.01);
}

TEST(Device, KernelBodyRunsEagerly) {
  Device dev;
  int ran = 0;
  dev.launch(0, KernelCost::dense(1, 1), [&] { ran = 1; });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(dev.stats().kernels, 1u);
}

TEST(Device, ResetStatsKeepsAllocations) {
  Device dev;
  auto buf = dev.alloc_doubles(128);
  dev.launch(0, KernelCost::dense(1e6, 0), {});
  dev.synchronize();
  dev.reset_stats();
  EXPECT_EQ(dev.stats().kernels, 0u);
  EXPECT_EQ(dev.stats().allocated_bytes, 128 * sizeof(double));
  EXPECT_EQ(dev.now(), 0.0);
}

TEST(Device, InvalidStreamRejected) {
  Device dev;
  EXPECT_THROW(dev.launch(5, KernelCost::dense(1, 1), {}), Error);
  EXPECT_THROW(dev.record(-1), Error);
}

/// What the obs registry holds about simulated kernels: the launch counter
/// and the occupancy histogram.
struct KernelObs {
  std::uint64_t launches = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<std::uint64_t> buckets;

  static KernelObs read() {
    KernelObs o;
    o.launches = obs::counter("gpumip.gpu.kernel.launches").value();
    const obs::Histogram& h = obs::histogram("gpumip.gpu.kernel.occupancy");
    o.count = h.count();
    o.sum = h.sum();
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) o.buckets.push_back(h.bucket_count(b));
    return o;
  }
  KernelObs minus(const KernelObs& before) const {
    KernelObs d{launches - before.launches, count - before.count, sum - before.sum, {}};
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      d.buckets.push_back(buckets[b] - before.buckets[b]);
    }
    return d;
  }
};

TEST(Device, LaunchNMatchesRepeatedLaunches) {
  // Two slots shared by three streams, with cross-stream waits: kernels
  // contend for slots, and a bulk charge must still land where `count`
  // single launches land, bit for bit.
  CostModelConfig cfg;
  cfg.parallel_slots = 2;
  Device bulk(cfg);
  Device single(cfg);
  for (Device* d : {&bulk, &single}) {
    ASSERT_EQ(d->create_stream(), 1);
    ASSERT_EQ(d->create_stream(), 2);
  }
  // Occupancies of the form k/2^17, as linalg::occupancy_for_elements
  // yields, keep the histogram sum exact.
  std::vector<KernelCost> costs = {KernelCost::dense(7e9, 0),  // ~1 ms
                                   KernelCost::dense(7e8, 1e5), KernelCost::dense(64, 64)};
  costs[1].occupancy = 5000.0 / 131072.0;
  costs[2].occupancy = 1.0 / 1024.0;
  struct Charge {
    StreamId stream;
    StreamId waits_on;  ///< stream whose frontier it waits for first; -1 none
    std::size_t cost;
    long count;
  };
  std::vector<Charge> charges;
  Rng rng(2024);
  std::uint64_t total = 0;
  std::uint64_t nonzero = 0;
  for (int i = 0; i < 200; ++i) {
    const auto stream = static_cast<StreamId>(rng.index(3));
    const StreamId waits_on = rng.flip(0.15) ? static_cast<StreamId>(rng.index(3)) : -1;
    const long count = rng.uniform_int(0, 12);
    charges.push_back({stream, waits_on, rng.index(costs.size()), count});
    total += static_cast<std::uint64_t>(count);
    nonzero += count > 0 ? 1 : 0;
  }

  obs::trace::reset();
  const KernelObs before_bulk = KernelObs::read();
  std::vector<std::vector<double>> bulk_frontiers;  // per charge, per stream
  int waited = 0;  // charges whose first kernel waited for a slot
  for (const Charge& c : charges) {
    if (c.waits_on >= 0) bulk.wait(c.stream, bulk.record(c.waits_on));
    const double ready = bulk.record(c.stream).ready_time;
    bulk.launch_n(c.stream, costs[c.cost], c.count);
    const double busy = static_cast<double>(c.count) * kernel_seconds(cfg, costs[c.cost]);
    if (bulk.record(c.stream).ready_time > ready + busy * (1.0 + 1e-9)) ++waited;
    bulk_frontiers.push_back({bulk.record(0).ready_time, bulk.record(1).ready_time,
                              bulk.record(2).ready_time});
  }
  const KernelObs bulk_obs = KernelObs::read().minus(before_bulk);
  EXPECT_GT(waited, 10);  // the slots really were contended
  const std::vector<obs::trace::TraceEvent> events = obs::trace::snapshot();

  const KernelObs before_single = KernelObs::read();
  for (std::size_t i = 0; i < charges.size(); ++i) {
    const Charge& c = charges[i];
    if (c.waits_on >= 0) single.wait(c.stream, single.record(c.waits_on));
    for (long k = 0; k < c.count; ++k) single.launch(c.stream, costs[c.cost], {});
    for (StreamId s = 0; s < 3; ++s) {
      EXPECT_EQ(bulk_frontiers[i][static_cast<std::size_t>(s)], single.record(s).ready_time)
          << "charge " << i << ", stream " << s;
    }
  }
  const KernelObs single_obs = KernelObs::read().minus(before_single);

  EXPECT_EQ(bulk.synchronize(), single.synchronize());
  EXPECT_EQ(bulk.stats().kernels, total);
  EXPECT_EQ(bulk.stats().kernels, single.stats().kernels);
  EXPECT_EQ(bulk.stats().kernel_seconds, single.stats().kernel_seconds);

  if (obs::kObsEnabled) {
    EXPECT_EQ(bulk_obs.launches, total);
    EXPECT_EQ(bulk_obs.launches, single_obs.launches);
    EXPECT_EQ(bulk_obs.count, single_obs.count);
    EXPECT_EQ(bulk_obs.sum, single_obs.sum);
    EXPECT_EQ(bulk_obs.buckets, single_obs.buckets);
    // One event per nonzero call, covering every launch and every
    // simulated kernel second.
    std::uint64_t runs = 0;
    std::uint64_t launches = 0;
    double seconds = 0.0;
    for (const obs::trace::TraceEvent& ev : events) {
      if (ev.name_view() != "gpumip.gpu.kernel") continue;
      EXPECT_EQ(ev.kind, obs::trace::EventKind::kComplete);
      EXPECT_EQ(ev.lane, obs::trace::Lane::kKernel);
      EXPECT_GT(ev.arg, 0u);
      ++runs;
      launches += ev.arg;
      seconds += ev.dur;
    }
    EXPECT_EQ(launches, total);
    EXPECT_NEAR(seconds, bulk.stats().kernel_seconds, 1e-12 * bulk.stats().kernel_seconds);
    EXPECT_EQ(runs, nonzero);
  }

  // count == 0 charges nothing and emits nothing.
  obs::trace::reset();
  const double frontier = bulk.record(1).ready_time;
  bulk.launch_n(1, costs[0], 0);
  EXPECT_EQ(bulk.record(1).ready_time, frontier);
  EXPECT_EQ(bulk.stats().kernels, total);
  EXPECT_TRUE(obs::trace::snapshot().empty());

  // A negative count and an invalid stream are typed errors that charge
  // nothing.
  try {
    bulk.launch_n(1, costs[0], -1);
    ADD_FAILURE() << "negative count accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
  EXPECT_THROW(bulk.launch_n(3, costs[0], 2), Error);
  EXPECT_THROW(bulk.launch_n(-1, costs[0], 2), Error);
  EXPECT_EQ(bulk.record(1).ready_time, frontier);
  EXPECT_EQ(bulk.stats().kernels, total);
}

}  // namespace
}  // namespace gpumip::gpu
