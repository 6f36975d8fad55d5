// The traced run's recorder: spans around the benchmark's calls into the
// program, with the program's own gpumip.metrics.v2 instruments read at
// each span boundary, folded into a per-layer self-time ledger.
//
// A span's self time is its duration minus its children. The children of a
// program call are the program's own timed instruments (gpumip.mip.solve,
// gpumip.lp.solve.seconds{method}) read as deltas over the call; tracing
// inside the program is not this benchmark's business. Time spent reading
// the registry is charged to `obs`, and whatever the item span holds
// beyond its children is charged to `bench` (checker and run loop), so
// the layer self times add up to the item's wall time exactly.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The registry instruments the ledger reads, as plain numbers.
struct RegistrySnapshot {
  std::array<double, 3> lp_s{};  ///< gpumip.lp.solve.seconds{method} sum: simplex, ipm, pdhg
  std::array<double, 3> lp_n{};  ///< gpumip.lp.solves{method}
  double mip_s = 0;              ///< gpumip.mip.solve sum (BnbSolver::run spans)
  double kernels = 0;            ///< gpumip.gpu.kernel.launches
  double allocs = 0;             ///< gpumip.gpu.alloc.calls
  double pdhg_iterations = 0;    ///< gpumip.lp.pdhg.iterations
  std::array<double, 2> occupancy_sum{};  ///< gpumip.lp.batch.occupancy{method}: simplex, pdhg
  std::array<double, 2> occupancy_n{};
  double block_s = 0;  ///< gpumip.simmpi.recv.block_seconds sum
  double idle_s = 0;   ///< Σ_rank gpumip.simmpi.recv.idle_seconds{rank}

  static RegistrySnapshot read();
  RegistrySnapshot minus(const RegistrySnapshot& before) const;
  void add(const RegistrySnapshot& other);
};

/// Layers of the self-time ledger, named after the repository's modules.
enum Layer { kBench, kObs, kMip, kLp, kGpu, kParallel, kLayers };
const char* layer_name(int layer) noexcept;

/// `s` as a JSON string literal: quoted, `"` and `\` escaped, control
/// characters dropped.
std::string json_string(const std::string& s);

struct SpanRecord {
  std::string name;
  double start = 0, end = 0;  ///< seconds since the run started
  int parent = -1;            ///< index of the item span, -1 for an item span
  long item = -1;
};

/// Totals over every span of one name.
struct SpanTotals {
  double seconds = 0.0;
  long count = 0;
  RegistrySnapshot registry;  ///< registry deltas over those spans
};

class Tracer {
 public:
  Tracer();

  void begin_item(long item);
  void end_item();
  /// One span per call into the program, inside an item.
  void begin(const char* span);
  void end();

  /// Zero totals for a name never recorded.
  const SpanTotals& totals(const std::string& span) const;
  /// Self seconds per layer, summed over all traced items.
  const std::array<double, kLayers>& self() const noexcept { return self_; }
  double item_seconds() const noexcept { return item_seconds_; }
  long items() const noexcept { return items_; }

  /// Writes the spans as JSON (written once, when the run ends).
  void write(const std::string& path) const;

 private:
  double now() const;
  void charge(const SpanRecord& span, const RegistrySnapshot& delta);

  double epoch_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, SpanTotals> totals_;
  int item_span_ = -1;
  int open_span_ = -1;
  RegistrySnapshot open_before_;
  double children_ = 0.0;  ///< Σ child span durations inside the open item
  double obs_ = 0.0;       ///< registry-read time inside the open item
  std::array<double, kLayers> self_{};
  double item_seconds_ = 0.0;
  long items_ = 0;
};

}  // namespace perfbench
