#include "tracer.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gpumip;

namespace {

constexpr int kMaxRanks = 64;  // rank labels probed for simmpi idle gauges
constexpr const char* kLpMethods[3] = {"simplex", "interior_point", "pdhg"};

double counter(const obs::Registry& reg, const std::string& name) {
  const obs::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double histogram_sum(const obs::Registry& reg, const std::string& name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h == nullptr ? 0.0 : h->sum();
}

double histogram_count(const obs::Registry& reg, const std::string& name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->count());
}

std::string method_label(const char* name, const char* method) {
  return obs::labeled_name(name, {{"method", method}});
}

/// Names resolved once: labeled_name() allocates.
struct Names {
  std::array<std::string, 3> lp_s, lp_n;
  std::array<std::string, 2> occupancy;
  std::vector<std::string> idle;
  Names() {
    for (int m = 0; m < 3; ++m) {
      lp_s[static_cast<std::size_t>(m)] = method_label("gpumip.lp.solve.seconds", kLpMethods[m]);
      lp_n[static_cast<std::size_t>(m)] = method_label("gpumip.lp.solves", kLpMethods[m]);
    }
    occupancy[0] = method_label("gpumip.lp.batch.occupancy", "simplex");
    occupancy[1] = method_label("gpumip.lp.batch.occupancy", "pdhg");
    for (int r = 0; r < kMaxRanks; ++r) {
      idle.push_back(obs::labeled_name("gpumip.simmpi.recv.idle_seconds", {{"rank", std::to_string(r)}}));
    }
  }
};

const Names& names() {
  static const Names n;
  return n;
}

}  // namespace

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

RegistrySnapshot RegistrySnapshot::read() {
  const obs::Registry& reg = obs::Registry::instance();
  const Names& n = names();
  RegistrySnapshot s;
  for (std::size_t m = 0; m < 3; ++m) {
    s.lp_s[m] = histogram_sum(reg, n.lp_s[m]);
    s.lp_n[m] = counter(reg, n.lp_n[m]);
  }
  s.mip_s = histogram_sum(reg, "gpumip.mip.solve");
  s.kernels = counter(reg, "gpumip.gpu.kernel.launches");
  s.allocs = counter(reg, "gpumip.gpu.alloc.calls");
  s.pdhg_iterations = counter(reg, "gpumip.lp.pdhg.iterations");
  for (std::size_t m = 0; m < 2; ++m) {
    s.occupancy_sum[m] = histogram_sum(reg, n.occupancy[m]);
    s.occupancy_n[m] = histogram_count(reg, n.occupancy[m]);
  }
  s.block_s = histogram_sum(reg, "gpumip.simmpi.recv.block_seconds");
  for (const std::string& name : n.idle) {
    const obs::Gauge* g = reg.find_gauge(name);
    if (g != nullptr) s.idle_s += g->value();
  }
  return s;
}

RegistrySnapshot RegistrySnapshot::minus(const RegistrySnapshot& before) const {
  RegistrySnapshot d = *this;
  for (std::size_t m = 0; m < 3; ++m) {
    d.lp_s[m] -= before.lp_s[m];
    d.lp_n[m] -= before.lp_n[m];
  }
  d.mip_s -= before.mip_s;
  d.kernels -= before.kernels;
  d.allocs -= before.allocs;
  d.pdhg_iterations -= before.pdhg_iterations;
  for (std::size_t m = 0; m < 2; ++m) {
    d.occupancy_sum[m] -= before.occupancy_sum[m];
    d.occupancy_n[m] -= before.occupancy_n[m];
  }
  d.block_s -= before.block_s;
  d.idle_s -= before.idle_s;
  return d;
}

void RegistrySnapshot::add(const RegistrySnapshot& other) {
  for (std::size_t m = 0; m < 3; ++m) {
    lp_s[m] += other.lp_s[m];
    lp_n[m] += other.lp_n[m];
  }
  mip_s += other.mip_s;
  kernels += other.kernels;
  allocs += other.allocs;
  pdhg_iterations += other.pdhg_iterations;
  for (std::size_t m = 0; m < 2; ++m) {
    occupancy_sum[m] += other.occupancy_sum[m];
    occupancy_n[m] += other.occupancy_n[m];
  }
  block_s += other.block_s;
  idle_s += other.idle_s;
}

const char* layer_name(int layer) noexcept {
  switch (layer) {
    case kBench: return "bench";
    case kObs: return "obs";
    case kMip: return "mip";
    case kLp: return "lp";
    case kGpu: return "gpu";
    case kParallel: return "parallel";
    default: return "?";
  }
}

Tracer::Tracer() : epoch_(now_s()) {}

double Tracer::now() const { return now_s() - epoch_; }

void Tracer::begin_item(long item) {
  if (item_span_ >= 0) throw std::logic_error("Tracer: nested item");
  item_span_ = static_cast<int>(spans_.size());
  spans_.push_back({"item", now(), 0.0, -1, item});
  children_ = 0.0;
  obs_ = 0.0;
}

void Tracer::end_item() {
  SpanRecord& item = spans_[static_cast<std::size_t>(item_span_)];
  item.end = now();
  const double total = item.end - item.start;
  self_[kObs] += obs_;
  self_[kBench] += total - children_ - obs_;
  item_seconds_ += total;
  ++items_;
  item_span_ = -1;
}

void Tracer::begin(const char* span) {
  if (item_span_ < 0 || open_span_ >= 0) throw std::logic_error("Tracer: span outside an item or nested");
  const double t0 = now();
  open_before_ = RegistrySnapshot::read();
  const double t1 = now();
  obs_ += t1 - t0;
  open_span_ = static_cast<int>(spans_.size());
  spans_.push_back({span, t1, 0.0, item_span_, spans_[static_cast<std::size_t>(item_span_)].item});
}

void Tracer::end() {
  SpanRecord& span = spans_[static_cast<std::size_t>(open_span_)];
  span.end = now();
  const RegistrySnapshot delta = RegistrySnapshot::read().minus(open_before_);
  obs_ += now() - span.end;
  children_ += span.end - span.start;
  charge(span, delta);
  SpanTotals& t = totals_[span.name];
  t.seconds += span.end - span.start;
  ++t.count;
  t.registry.add(delta);
  open_span_ = -1;
}

void Tracer::charge(const SpanRecord& span, const RegistrySnapshot& delta) {
  const double dur = span.end - span.start;
  const double lp = delta.lp_s[0] + delta.lp_s[1] + delta.lp_s[2];
  if (span.name == "mip.solve") {
    self_[kLp] += lp;
    self_[kMip] += dur - lp;
  } else if (span.name == "parallel.run_strategy") {
    // run_strategy = BnbSolver::run (gpumip.mip.solve) + the strategy replay.
    self_[kLp] += lp;
    self_[kMip] += delta.mip_s - lp;
    self_[kParallel] += dur - delta.mip_s;
  } else if (span.name.rfind("lp.batch.", 0) == 0) {
    // Host numerics per member, then the lockstep wave replay on the
    // simulated device.
    self_[kLp] += lp;
    self_[kGpu] += dur - lp;
  } else if (span.name == "parallel.solve_supervised") {
    // Worker threads overlap, so per-thread instrument sums exceed the wall
    // span; the whole call is charged to the parallel layer.
    self_[kParallel] += dur;
  } else {
    self_[kBench] += dur;
  }
}

const SpanTotals& Tracer::totals(const std::string& span) const {
  static const SpanTotals kNone;
  const auto it = totals_.find(span);
  return it == totals_.end() ? kNone : it->second;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"schema\": \"perfbench.spans.v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"start\": %.9f, \"end\": %.9f, \"parent\": %d, \"item\": %ld}",
                  s.start, s.end, s.parent, s.item);
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name) << ", " << buf
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
