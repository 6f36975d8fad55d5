// E1 — the four parallel execution strategies (paper section 3, claim C1).
//
// Scenario A (matrix fits one device): the paper predicts S2/S3 are the
// effective designs; S1 suffers divergent tree kernels and dies on device
// memory as trees grow; S4 pays per-iteration interconnect synchronization
// it does not need.
// Scenario B (matrix exceeds one device): only S4 (Big-MIP) can run at all.
//
// Each instance is searched once and priced under every strategy, so all
// strategies price the same tree (parallel::replay_strategy).
#include "bench/common.hpp"
#include "parallel/strategies.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;

void report_line(const parallel::StrategyReport& r) {
  bench::row("  %-22s %-9s sim=%-12s dev=%-12s host=%-12s xfer=%-11s peak=%-11s %s",
             parallel::strategy_name(r.strategy),
             r.completed ? "ok" : "FAILS",
             human_seconds(r.sim_seconds).c_str(), human_seconds(r.device_seconds).c_str(),
             human_seconds(r.host_seconds).c_str(),
             human_bytes(r.bytes_h2d + r.bytes_d2h).c_str(),
             human_bytes(r.device_peak_bytes).c_str(),
             r.completed ? "" : "(device OOM)");
}

/// The seed-41 instance of E1-A and E1-A', searched once for both.
mip::MipModel instance_a() {
  Rng rng(41);
  problems::RandomMipConfig cfg;
  cfg.rows = 14;
  cfg.cols = 24;
  cfg.bound = 4.0;
  return problems::random_mip(cfg, rng);
}

void scenario_a(const mip::BnbSolver& searched) {
  bench::title("E1-A", "strategies on a MIP whose matrix fits one device");
  parallel::StrategyConfig config;
  config.devices = 4;
  for (auto strategy : {parallel::Strategy::S1_GpuOnly, parallel::Strategy::S2_CpuOrchestrated,
                        parallel::Strategy::S3_Hybrid, parallel::Strategy::S4_BigMip}) {
    report_line(parallel::replay_strategy(strategy, searched, config));
  }
  bench::note("expected shape: S2/S3 fastest (S3 <= S2); S1 pays divergent tree kernels;");
  bench::note("S4 pays interconnect sync per simplex iteration.");
}

void scenario_a_small_device(const mip::BnbSolver& searched) {
  bench::title("E1-A'", "same MIP, device memory too small for S1's tree");
  parallel::StrategyConfig config;
  config.device.memory_bytes = parallel::lp_device_footprint(searched.form()) + 2048;
  for (auto strategy : {parallel::Strategy::S1_GpuOnly, parallel::Strategy::S2_CpuOrchestrated}) {
    report_line(parallel::replay_strategy(strategy, searched, config));
  }
  bench::note("expected shape: S1 fails (tree cannot fit), S2 unaffected (tree on host).");
}

void scenario_b() {
  bench::title("E1-B", "Big-MIP: LP matrix exceeds a single device");
  Rng rng(43);
  problems::RandomMipConfig cfg;
  cfg.rows = 20;
  cfg.cols = 40;
  cfg.bound = 2.0;
  cfg.integer_fraction = 0.4;
  mip::MipOptions options;
  options.enable_cuts = false;
  options.max_nodes = 200;
  mip::BnbSolver searched(problems::random_mip(cfg, rng), options);
  static_cast<void>(searched.solve());

  parallel::StrategyConfig config;
  config.devices = 4;
  config.device.memory_bytes = parallel::lp_device_footprint(searched.form()) * 6 / 10;
  for (auto strategy : {parallel::Strategy::S2_CpuOrchestrated, parallel::Strategy::S3_Hybrid,
                        parallel::Strategy::S4_BigMip}) {
    report_line(parallel::replay_strategy(strategy, searched, config));
  }
  bench::note("expected shape: S2/S3 fail on allocation; S4 shards columns and completes.");
}

}  // namespace

int main() {
  using namespace gpumip;
  mip::MipOptions options;
  options.enable_cuts = false;
  mip::BnbSolver searched(instance_a(), options);
  static_cast<void>(searched.solve());
  scenario_a(searched);
  scenario_a_small_device(searched);
  scenario_b();
  gpumip::bench::write_exports();
}
