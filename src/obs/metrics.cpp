#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <vector>

#include "support/error.hpp"

namespace gpumip::obs {

void Gauge::add(double v) noexcept {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void Gauge::set_max(double v) noexcept {
  double cur = value_.load(std::memory_order_relaxed);
  while (cur < v && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

namespace {

int bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // nonpositive and NaN underflow to bucket 0
  int exp = 0;
  const double f = std::frexp(v, &exp);  // v = f * 2^exp with f in [0.5, 1)
  // Buckets are (2^(e-1), 2^e]: an exact power of two (f == 0.5) belongs to
  // the bucket it is the upper edge of, not the next one.
  if (f == 0.5) --exp;
  const int idx = exp + Histogram::kZeroBucket;
  return std::clamp(idx, 0, Histogram::kBuckets - 1);
}

/// Upper edge of a bucket (2^(b - kZeroBucket)).
double bucket_upper(int bucket) noexcept {
  return std::ldexp(1.0, bucket - Histogram::kZeroBucket);
}

void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::record(double v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
  atomic_add(sum_, v);
  count_.fetch_add(1, std::memory_order_relaxed);
}

void Histogram::record_n(double v, std::uint64_t n) noexcept {
  if (n == 0) return;
  buckets_[bucket_index(v)].fetch_add(n, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
  atomic_add(sum_, v * static_cast<double>(n));
  count_.fetch_add(n, std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank && seen > 0) {
      // Clamp the bucket edge into the observed range so single-value
      // histograms report that value, not a power of two.
      return std::clamp(bucket_upper(b), min(), max());
    }
  }
  return max();
}

std::uint64_t Histogram::bucket_count(int bucket) const noexcept {
  if (bucket < 0 || bucket >= kBuckets) return 0;
  return buckets_[bucket].load(std::memory_order_relaxed);
}

// ---- labels ----

bool valid_label_key(std::string_view key) noexcept {
  if (key.empty()) return false;
  for (char c : key) {
    if (!((c >= 'a' && c <= 'z') || c == '_')) return false;
  }
  return true;
}

namespace {

/// Replaces bytes that would collide with the `name{k=v,...}` flattening
/// syntax so every flattened name parses back unambiguously.
void append_sanitized(std::string& out, std::string_view value) {
  for (char c : value) {
    const bool unsafe = c == '{' || c == '}' || c == ',' || c == '=' || c == '"' ||
                        c == '\\' || static_cast<unsigned char>(c) <= 0x20;
    out.push_back(unsafe ? '_' : c);
  }
}

/// Sorted-by-key view of a label list; throws on bad or duplicate keys.
std::vector<const Label*> sorted_labels(std::string_view name,
                                        std::initializer_list<Label> labels) {
  std::vector<const Label*> sorted;
  sorted.reserve(labels.size());
  for (const Label& l : labels) sorted.push_back(&l);
  std::sort(sorted.begin(), sorted.end(),
            [](const Label* a, const Label* b) { return a->key < b->key; });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (!valid_label_key(sorted[i]->key)) {
      throw Error(ErrorCode::kInvalidArgument, "metrics: label key '" +
                                                   std::string(sorted[i]->key) + "' on '" +
                                                   std::string(name) +
                                                   "' violates the [a-z_]+ grammar");
    }
    if (i > 0 && sorted[i]->key == sorted[i - 1]->key) {
      throw Error(ErrorCode::kInvalidArgument, "metrics: duplicate label key '" +
                                                   std::string(sorted[i]->key) + "' on '" +
                                                   std::string(name) + "'");
    }
  }
  return sorted;
}

}  // namespace

std::string labeled_name(std::string_view name, std::initializer_list<Label> labels) {
  if (labels.size() == 0) return std::string(name);
  const auto sorted = sorted_labels(name, labels);
  std::string out(name);
  out.push_back('{');
  bool first = true;
  for (const Label* l : sorted) {
    if (!first) out.push_back(',');
    out.append(l->key);
    out.push_back('=');
    append_sanitized(out, l->value);
    first = false;
  }
  out.push_back('}');
  return out;
}

std::string family_name(std::string_view name, std::initializer_list<Label> labels) {
  if (labels.size() == 0) return std::string(name);
  const auto sorted = sorted_labels(name, labels);
  std::string out(name);
  out.push_back('{');
  bool first = true;
  for (const Label* l : sorted) {
    if (!first) out.push_back(',');
    out.append(l->key);
    first = false;
  }
  out.push_back('}');
  return out;
}

// ---- registry ----

struct Registry::Impl {
  mutable std::shared_mutex mutex;
  // Node-based maps: references stay valid across later insertions, so
  // call sites may cache them for the life of the process.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  // `name{key,...}` family strings of labeled instruments, for the v2
  // export and the METRICS.md glossary gate.
  std::map<std::string, std::uint64_t, std::less<>> families;
};

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Impl& Registry::impl() const {
  static Impl impl;
  return impl;
}

namespace {

template <typename Map, typename Metric = typename Map::mapped_type::element_type>
Metric& find_or_create(std::shared_mutex& mutex, Map& map, std::string_view name) {
  {
    std::shared_lock lock(mutex);
    auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock lock(mutex);
  auto [it, inserted] = map.try_emplace(std::string(name), nullptr);
  if (inserted) it->second = std::make_unique<Metric>();
  return *it->second;
}

/// Shortest round-trippable representation of a double, JSON-safe (no
/// inf/nan reach this: instruments only ever hold finite values, and the
/// exporters clamp just in case).
std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // %.17g may print "1e+06" etc. — all valid JSON numbers.
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  return find_or_create(im.mutex, im.counters, name);
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& im = impl();
  return find_or_create(im.mutex, im.gauges, name);
}

Histogram& Registry::histogram(std::string_view name) {
  Impl& im = impl();
  return find_or_create(im.mutex, im.histograms, name);
}

namespace {

/// Labeled find_or_create: flattens the name, and on first creation also
/// records the instrument's family so the v2 export can index it.
template <typename Map, typename Families,
          typename Metric = typename Map::mapped_type::element_type>
Metric& find_or_create_labeled(std::shared_mutex& mutex, Map& map, Families& families,
                               std::string_view name, std::initializer_list<Label> labels) {
  const std::string flat = labeled_name(name, labels);
  {
    std::shared_lock lock(mutex);
    auto it = map.find(flat);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock lock(mutex);
  auto [it, inserted] = map.try_emplace(flat, nullptr);
  if (inserted) {
    it->second = std::make_unique<Metric>();
    if (labels.size() != 0) ++families[family_name(name, labels)];
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name, std::initializer_list<Label> labels) {
  Impl& im = impl();
  return find_or_create_labeled(im.mutex, im.counters, im.families, name, labels);
}

Gauge& Registry::gauge(std::string_view name, std::initializer_list<Label> labels) {
  Impl& im = impl();
  return find_or_create_labeled(im.mutex, im.gauges, im.families, name, labels);
}

Histogram& Registry::histogram(std::string_view name, std::initializer_list<Label> labels) {
  Impl& im = impl();
  return find_or_create_labeled(im.mutex, im.histograms, im.families, name, labels);
}

namespace {

template <typename Map>
const typename Map::mapped_type::element_type* find_no_create(std::shared_mutex& mutex,
                                                              const Map& map,
                                                              std::string_view name) {
  std::shared_lock lock(mutex);
  auto it = map.find(name);
  return it == map.end() ? nullptr : it->second.get();
}

}  // namespace

const Counter* Registry::find_counter(std::string_view name) const {
  Impl& im = impl();
  return find_no_create(im.mutex, im.counters, name);
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  Impl& im = impl();
  return find_no_create(im.mutex, im.gauges, name);
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  Impl& im = impl();
  return find_no_create(im.mutex, im.histograms, name);
}

std::string Registry::to_json() const {
  Impl& im = impl();
  std::shared_lock lock(im.mutex);
  std::ostringstream out;
  out << "{\n  \"schema\": \"gpumip.metrics.v2\",\n  \"enabled\": "
      << (kObsEnabled ? "true" : "false") << ",\n";

  // v2 addition: the `name{key,...}` family of every labeled instrument.
  // v1 readers that only walk the three instrument maps are unaffected.
  out << "  \"families\": [";
  bool first = true;
  for (const auto& [family, combos] : im.families) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(family) << "\"";
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n";

  out << "  \"counters\": {";
  first = true;
  for (const auto& [name, c] : im.counters) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : im.gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << json_number(g->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : im.histograms) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {"
        << "\"count\": " << h->count() << ", \"sum\": " << json_number(h->sum())
        << ", \"min\": " << json_number(h->min()) << ", \"max\": " << json_number(h->max())
        << ", \"mean\": " << json_number(h->mean())
        << ", \"p50\": " << json_number(h->quantile(0.50))
        << ", \"p90\": " << json_number(h->quantile(0.90))
        << ", \"p99\": " << json_number(h->quantile(0.99)) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

void Registry::export_json(const std::string& path) const {
  const std::string body = to_json();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw Error(ErrorCode::kIoError, "metrics export: cannot open '" + path + "' for writing");
  }
  out << body;
  out.flush();
  if (!out) {
    throw Error(ErrorCode::kIoError, "metrics export: write to '" + path + "' failed");
  }
}

std::string export_if_requested() {
  const char* path = std::getenv("GPUMIP_METRICS_OUT");
  if (path == nullptr || *path == '\0') return "";
  Registry::instance().export_json(path);
  return path;
}

}  // namespace gpumip::obs
