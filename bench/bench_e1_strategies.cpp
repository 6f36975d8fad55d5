// E1 — the four parallel execution strategies (paper section 3, claim C1).
//
// Scenario A (matrix fits one device): the paper predicts S2/S3 are the
// effective designs; S1 suffers divergent tree kernels and dies on device
// memory as trees grow; S4 pays per-iteration interconnect synchronization
// it does not need.
// Scenario B (matrix exceeds one device): only S4 (Big-MIP) can run at all.
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

void scenario_a() {
  bench::title("E1-A", "strategies on a MIP whose matrix fits one device");
  Rng rng(41);
  problems::RandomMipConfig cfg;
  cfg.rows = 14;
  cfg.cols = 24;
  cfg.bound = 4.0;
  mip::MipModel model = problems::random_mip(cfg, rng);

  parallel::StrategyConfig config;
  config.mip.enable_cuts = false;
  config.devices = 4;
  double reference = 0.0;
  for (auto strategy : {parallel::Strategy::S1_GpuOnly, parallel::Strategy::S2_CpuOrchestrated,
                        parallel::Strategy::S3_Hybrid, parallel::Strategy::S4_BigMip}) {
    parallel::StrategyReport r = parallel::run_strategy(strategy, model, config);
    if (reference == 0.0) reference = r.result.objective;
    report_line(r);
    if (std::abs(r.result.objective - reference) > 1e-6) bench::note("OBJECTIVE MISMATCH!");
  }
  bench::note("expected shape: S2/S3 fastest (S3 <= S2); S1 pays divergent tree kernels;");
  bench::note("S4 pays interconnect sync per simplex iteration.");
}

void scenario_a_small_device() {
  bench::title("E1-A'", "same MIP, device memory too small for S1's tree");
  Rng rng(41);
  problems::RandomMipConfig cfg;
  cfg.rows = 14;
  cfg.cols = 24;
  cfg.bound = 4.0;
  mip::MipModel model = problems::random_mip(cfg, rng);
  const lp::StandardForm form = lp::build_standard_form(model.lp());

  parallel::StrategyConfig config;
  config.mip.enable_cuts = false;
  config.device.memory_bytes = parallel::lp_device_footprint(form) + 2048;
  for (auto strategy : {parallel::Strategy::S1_GpuOnly, parallel::Strategy::S2_CpuOrchestrated}) {
    report_line(parallel::run_strategy(strategy, model, config));
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
  mip::MipModel model = problems::random_mip(cfg, rng);
  const lp::StandardForm form = lp::build_standard_form(model.lp());

  parallel::StrategyConfig config;
  config.mip.enable_cuts = false;
  config.mip.max_nodes = 200;
  config.devices = 4;
  config.device.memory_bytes = parallel::lp_device_footprint(form) * 6 / 10;
  for (auto strategy : {parallel::Strategy::S2_CpuOrchestrated, parallel::Strategy::S3_Hybrid,
                        parallel::Strategy::S4_BigMip}) {
    report_line(parallel::run_strategy(strategy, model, config));
  }
  bench::note("expected shape: S2/S3 fail on allocation; S4 shards columns and completes.");
}

}  // namespace

int main() {
  scenario_a();
  scenario_a_small_device();
  scenario_b();
  gpumip::bench::write_exports();
}
