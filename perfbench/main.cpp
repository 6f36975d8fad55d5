// gpumip_bench: the gpumip benchmark.
//
//   gpumip_bench --workload <bnb_tree|uc_ipm|lp_batch_simplex|lp_batch_pdhg|supervised>
//                --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//                [--fault-drill] [--source <commit or tree hash>]
//
// Sets the workload's item pool up several times (setup_s is the median),
// then runs the pool pass after pass until --seconds have elapsed (always
// at least one whole pass), checking every output. Host times are rescaled
// to a reference host speed (speed.hpp). --trace 0 reports the
// end-to-end metrics; --trace 1 interleaves an untraced and a traced run
// of every item and reports the per-layer metrics (README.md). The last
// line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "speed.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace obs = gpumip::obs;

constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 64;  // cheap set-ups repeat for the whole budget
constexpr double kSetupBudgetS = 1.0;  // stop repeating set-up past this (after kMinSetups)
constexpr int kSetupSpeedSamples = 4;  // kernel samples before each set-up and after the last
constexpr int kTailBeyond = 10;        // samples a tail percentile must leave above it
// sim_makespan_s aggregates per-item simulated seconds as a shifted
// geometric mean, the usual MIP-benchmark mean: branch-and-bound costs are
// heavy-tailed, and a plain sum over a pass is set by its one or two
// largest trees (README.md, "Findings").
constexpr double kSimShiftS = 1e-3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir;
  std::string source = "unknown";
  bool fault_drill = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = std::stoi(value());
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--source") {
      args.source = value();
    } else if (flag == "--fault-drill") {
      args.fault_drill = true;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest whole percentile that leaves at least kTailBeyond samples
/// above it (nearest-rank), or the maximum when there are too few samples.
struct Tail {
  double value = 0.0;
  int percentile = 100;
};

Tail tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p = 99; p >= 1; --p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= static_cast<std::size_t>(kTailBeyond)) return {v[rank - 1], p};
  }
  return {v.empty() ? 0.0 : v.back(), 100};
}

double shifted_geomean(const std::vector<double>& v, double shift) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x + shift);
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size())) - shift;
}

/// VmHWM of this process. getrusage's ru_maxrss is no use here: Linux
/// carries the parent's high-water mark across fork+exec, so it reports the
/// launching interpreter's footprint whenever that is the larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_provenance(const Args& args, std::uint64_t input_hash) {
#ifdef GPUMIP_CHECKED
  const char* checked = "ON";
#else
  const char* checked = "OFF";
#endif
  std::printf(
      "provenance {\"source\": %s, \"build_type\": %s, \"GPUMIP_OBS\": \"ON\", "
      "\"GPUMIP_CHECKED\": \"%s\", \"compiler\": %s, \"nproc\": %u, \"cpu\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"input_hash\": \"%s\"}\n",
      json_string(args.source).c_str(), json_string(GPUMIP_BENCH_BUILD_TYPE).c_str(), checked,
      json_string(GPUMIP_BENCH_COMPILER).c_str(), std::thread::hardware_concurrency(),
      json_string(cpu_model()).c_str(), json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), hex(input_hash).c_str());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Runs set-up kMinSetups..kMaxSetups times; keeps the first pool and
/// insists every repeat generated byte-identical inputs. Set-up times are
/// rescaled to reference speed (speed.hpp).
struct Setup {
  Pool pool;
  std::vector<double> setup_s, raw_setup_s, gen_s;
};

Setup set_up(Kind kind, std::uint64_t seed, SpeedLog& speed) {
  Setup s;
  std::vector<double> starts;
  const double start = now_s();
  for (int r = 0; r < kMaxSetups; ++r) {
    speed.sample(kSetupSpeedSamples);
    const double t0 = now_s();
    Pool pool = make_pool(kind, seed);
    starts.push_back(t0);
    s.raw_setup_s.push_back(now_s() - t0);
    s.gen_s.push_back(pool.gen_s);
    if (r == 0) {
      s.pool = std::move(pool);
    } else if (pool.input_hash != s.pool.input_hash) {
      throw std::runtime_error("set-up is not deterministic: input hash changed between repeats");
    }
    if (r + 1 >= kMinSetups && now_s() - start > kSetupBudgetS) break;
  }
  speed.sample(kSetupSpeedSamples);
  for (std::size_t r = 0; r < starts.size(); ++r) s.setup_s.push_back(speed.rescale(starts[r], s.raw_setup_s[r]));
  return s;
}

struct Failures {
  long attempted = 0;
  long failed = 0;
  std::string first;
  void record(const Outcome& o, std::size_t item) {
    ++attempted;
    if (o.why.empty()) return;
    if (failed++ == 0) first = "item " + std::to_string(item) + ": " + o.why;
  }
};

/// Calls run(pass, item) over the pool pass after pass until `seconds`
/// have elapsed; the first pass always completes. Returns the passes begun.
template <typename Run>
int run_passes(std::size_t items, double seconds, Run&& run) {
  const double deadline = now_s() + seconds;
  for (int pass = 0;; ++pass) {
    for (std::size_t i = 0; i < items; ++i) {
      if (pass > 0 && now_s() >= deadline) return pass + 1;
      run(pass, i);
    }
    if (now_s() >= deadline) return pass + 1;
  }
}

// ---- --trace 0: end-to-end metrics ----

std::vector<Metric> run_untraced(const Args& args, const Setup& setup, SpeedLog& speed,
                                 Failures& failures) {
  const Pool& pool = setup.pool;
  const std::size_t n = pool.items.size();
  std::vector<std::vector<double>> starts(n), walls(n), sims(n);
  std::vector<double> item_lps(n, 0.0);
  double wall_total = 0.0;
  long lps = 0;
  const int passes = run_passes(n, args.seconds, [&](int pass, std::size_t i) {
    speed.sample();
    starts[i].push_back(now_s());
    const Outcome o = run_item(pool, i, nullptr, args.fault_drill && pass == 0 && i == 0);
    failures.record(o, i);
    walls[i].push_back(o.call_s);
    sims[i].push_back(o.sim_s);
    item_lps[i] += static_cast<double>(o.lps);
    wall_total += o.call_s;
    lps += o.lps;
  });
  speed.sample();
  // Per-item host seconds: each pass rescaled to reference speed by the
  // kernel samples around it (speed.hpp), then the fastest of the item's
  // passes. Rescaling takes out the slow phases that last seconds; the
  // fastest pass takes out the shorter stalls, which the kernel, run
  // between calls, does not see. Per-item simulated seconds: the median over
  // passes; they repeat bit for bit on every workload but `supervised`,
  // whose message races follow real thread timing (its cold first pass can
  // double a makespan).
  std::vector<double> per_item, raw_item, sim_item;
  double best_total = 0.0, lps_per_pass = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < walls[i].size(); ++p) best = std::min(best, speed.rescale(starts[i][p], walls[i][p]));
    per_item.push_back(best);
    raw_item.push_back(*std::min_element(walls[i].begin(), walls[i].end()));
    sim_item.push_back(median(sims[i]));
    best_total += per_item.back();
    lps_per_pass += item_lps[i] / static_cast<double>(walls[i].size());
  }
  const double lp_rate = lps_per_pass / best_total;
  const Tail t = tail(per_item);
  const double failed_frac =
      static_cast<double>(failures.failed) / static_cast<double>(std::max(1L, failures.attempted));
  const double sim = shifted_geomean(sim_item, kSimShiftS);
  double sim_sum = 0.0;
  for (double x : sim_item) sim_sum += x;

  std::printf("items %zu  passes %d  attempted %ld  failed %ld\n", n, passes, failures.attempted,
              failures.failed);
  const Tail raw_t = tail(raw_item);
  std::printf("solve_s_p50     %.6g s   (median of %zu per-item fastest passes at reference speed; "
              "unscaled %.6g s)\n",
              median(per_item), n, median(raw_item));
  std::printf("solve_s_tail    %.6g s   (p%d of %zu per-item fastest passes, >= %d beyond; unscaled %.6g s)\n",
              t.value, t.percentile, n, kTailBeyond, raw_t.value);
  std::printf("lp_per_s        %.6g 1/s (%.6g LPs per pass in %.6g fastest host s; all passes: "
              "%ld LPs in %.3f unscaled host s)\n",
              lp_rate, lps_per_pass, best_total, lps, wall_total);
  std::printf("sim_makespan_s  %.17g s   (shifted geometric mean, shift %g s, of %zu items; sum %.17g s)\n",
              sim, kSimShiftS, n, sim_sum);
  std::printf("setup_s         %.6g s   (median of %zu set-ups at reference speed; unscaled %.6g s)\n",
              median(setup.setup_s), setup.setup_s.size(), median(setup.raw_setup_s));
  std::printf("host speed      kernel median %.1f us over the run (reference %.1f us)\n",
              speed.median_s() * 1e6, SpeedLog::kReferenceS * 1e6);
  std::printf("failed_frac     %.6g\n", failed_frac);
  std::printf("peak_rss_mb     %.6g MB\n", peak_rss_mb());
  return {
      {"solve_s_p50", median(per_item), "s"},
      {"solve_s_tail", t.value, "s"},
      {"lp_per_s", lp_rate, "1/s"},
      {"sim_makespan_s", sim, "s"},
      {"setup_s", median(setup.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// ---- --trace 1: per-layer metrics ----

std::vector<Metric> run_traced(const Args& args, const Setup& setup, Failures& failures) {
  const Pool& pool = setup.pool;
  Tracer tracer;
  LayerCounts sum;
  double untraced_s = 0.0, comparable_s = 0.0;
  const int passes = run_passes(pool.items.size(), args.seconds, [&](int pass, std::size_t i) {
    const bool corrupt = args.fault_drill && pass == 0 && i == 0;
    const double t0 = now_s();
    failures.record(run_item(pool, i, nullptr, corrupt), i);
    untraced_s += now_s() - t0;

    const double mip_before = tracer.totals("mip.solve").seconds;
    tracer.begin_item(static_cast<long>(i));
    const double t1 = now_s();
    const Outcome o = run_item(pool, i, &tracer, corrupt);
    const double traced = now_s() - t1;
    tracer.end_item();
    failures.record(o, i);
    // The traced MIP item also solves the model on its own (mip.solve);
    // the rest is the same call the untraced run timed.
    comparable_s += traced - (tracer.totals("mip.solve").seconds - mip_before);
    sum.add(o.layer);
  });

  const double items = static_cast<double>(tracer.items());
  auto per_item = [&](double v) { return v / items; };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  // Registry deltas of the program calls, without the replay's second tree
  // search (parallel.run_strategy re-solves what mip.solve solved).
  const SpanTotals& mip_solve = tracer.totals("mip.solve");
  const SpanTotals& strategy = tracer.totals("parallel.run_strategy");
  const SpanTotals& simplex_batch = tracer.totals("lp.batch.simplex");
  const SpanTotals& pdhg_batch = tracer.totals("lp.batch.pdhg");
  const SpanTotals& supervised = tracer.totals("parallel.solve_supervised");
  RegistrySnapshot lp_calls = mip_solve.registry;
  lp_calls.add(simplex_batch.registry);
  lp_calls.add(pdhg_batch.registry);
  lp_calls.add(supervised.registry);
  RegistrySnapshot device_calls = strategy.registry;
  device_calls.add(simplex_batch.registry);
  device_calls.add(pdhg_batch.registry);
  const obs::Counter* dropped = obs::Registry::instance().find_counter("gpumip.obs.trace.dropped");

  std::vector<Metric> m = {
      {"problems.gen_s", median(setup.gen_s), "s"},
      {"mip.solve_s", per_item(mip_solve.seconds), "s"},
      {"mip.nodes", per_item(sum.nodes), "count"},
      {"mip.hot_frac", ratio(sum.hot, sum.nodes), "fraction"},
      {"mip.cuts", per_item(sum.cuts), "count"},
      {"mip.lp_trouble", per_item(sum.lp_trouble), "count"},
      {"mip.node_limit_frac", per_item(sum.node_limit), "fraction"},
      {"lp.solves.simplex", per_item(lp_calls.lp_n[0]), "count"},
      {"lp.solves.ipm", per_item(lp_calls.lp_n[1]), "count"},
      {"lp.solves.pdhg", per_item(lp_calls.lp_n[2]), "count"},
      {"lp.solve_s.simplex", per_item(lp_calls.lp_s[0]), "s"},
      {"lp.solve_s.ipm", per_item(lp_calls.lp_s[1]), "s"},
      {"lp.solve_s.pdhg", per_item(lp_calls.lp_s[2]), "s"},
      {"lp.simplex.iterations", per_item(sum.simplex_iterations), "count"},
      {"lp.refactor", per_item(sum.refactor), "count"},
      {"lp.ipm.cholesky", per_item(sum.cholesky), "count"},
      {"lp.batch_s.simplex", ratio(simplex_batch.seconds, static_cast<double>(simplex_batch.count)), "s"},
      {"lp.batch_s.pdhg", ratio(pdhg_batch.seconds, static_cast<double>(pdhg_batch.count)), "s"},
      {"lp.batch.waves", per_item(sum.batch_waves), "count"},
      {"lp.batch.kernels", per_item(sum.batch_kernels), "count"},
      {"lp.batch.occupancy",
       ratio(lp_calls.occupancy_sum[0] + lp_calls.occupancy_sum[1],
             lp_calls.occupancy_n[0] + lp_calls.occupancy_n[1]),
       "fraction"},
      {"lp.pdhg.iterations", ratio(pdhg_batch.registry.pdhg_iterations, static_cast<double>(pdhg_batch.count)), "count"},
      {"gpu.h2d_bytes", per_item(sum.h2d_bytes), "bytes"},
      {"gpu.d2h_bytes", per_item(sum.d2h_bytes), "bytes"},
      {"gpu.transfers", per_item(sum.transfers), "count"},
      {"gpu.device_s", per_item(sum.device_s), "s"},
      {"gpu.peak_bytes", per_item(sum.peak_bytes), "bytes"},
      {"gpu.kernel_launches", per_item(device_calls.kernels), "count"},
      {"gpu.alloc_calls", per_item(device_calls.allocs), "count"},
      {"strategy.replay_s", per_item(strategy.seconds - mip_solve.seconds), "s"},
      {"strategy.host_sim_s", per_item(sum.host_sim_s), "s"},
      {"supervisor.ramp_up_frac", per_item(sum.ramp_up_frac), "fraction"},
      {"supervisor.busy_frac", per_item(sum.busy_frac), "fraction"},
      {"supervisor.balance_cv", per_item(sum.balance_cv), "ratio"},
      {"supervisor.dispatched", per_item(sum.dispatched), "count"},
      {"simmpi.msgs", per_item(sum.msgs), "count"},
      {"simmpi.bytes", per_item(sum.bytes), "bytes"},
      {"simmpi.idle_s", per_item(supervised.registry.idle_s), "s"},
      {"simmpi.block_s", per_item(supervised.registry.block_s), "s"},
      {"obs.trace_overhead_frac", ratio(comparable_s, untraced_s) - 1.0, "fraction"},
      {"obs.trace_dropped", dropped == nullptr ? 0.0 : static_cast<double>(dropped->value()), "count"},
  };
  double self_sum = 0.0;
  std::printf("traced items %ld  passes %d  attempted %ld  failed %ld\n", tracer.items(), passes,
              failures.attempted, failures.failed);
  std::printf("layer self time per traced item:\n");
  for (int layer = 0; layer < kLayers; ++layer) {
    const double s = per_item(tracer.self()[static_cast<std::size_t>(layer)]);
    self_sum += s;
    std::printf("  %-9s %.6g s\n", layer_name(layer), s);
    m.push_back({std::string("self_s.") + layer_name(layer), s, "s"});
  }
  const double item_s = per_item(tracer.item_seconds());
  std::printf("  %-9s %.6g s   (traced per-item wall %.6g s)\n", "sum", self_sum, item_s);
  m.push_back({"trace.item_s", item_s, "s"});
  for (const Metric& metric : m) {
    std::printf("%-26s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }

  if (!args.out_dir.empty()) {
    const std::string stem =
        args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
    tracer.write(stem + ".spans.json");
    obs::export_json(stem + ".metrics.json");
    std::printf("spans -> %s.spans.json, gpumip.metrics.v2 -> %s.metrics.json\n", stem.c_str(),
                stem.c_str());
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Kind kind = parse_kind(args.workload);
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
                args.fault_drill ? " fault-drill" : "");
    SpeedLog speed;
    const Setup setup = set_up(kind, args.seed, speed);
    print_provenance(args, setup.pool.input_hash);
    std::printf("input_hash %s\n", hex(setup.pool.input_hash).c_str());
    Failures failures;
    const std::vector<Metric> metrics = args.trace == 0 ? run_untraced(args, setup, speed, failures)
                                                        : run_traced(args, setup, failures);
    if (failures.failed > 0) std::printf("first failure: %s\n", failures.first.c_str());
    std::fflush(stdout);
    print_result(failures.failed == 0, failures.attempted, failures.failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "gpumip_bench: %s\n", e.what());
    return 1;
  }
}
