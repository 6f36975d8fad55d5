// Observability primitives: counters, gauges, histograms, and the
// process-wide registry that owns them (see DESIGN.md, "Observability").
//
// These are *measurement* instruments, not correctness validators (that is
// check/): a counter records how often a hot path ran, a histogram records
// a distribution (batch sizes, kernel occupancy, span durations), a gauge
// records a last-written or running-maximum value. All mutation paths are
// lock-free atomics so instruments can be bumped from any thread or simmpi
// rank concurrently; registration (first lookup of a name) takes a lock.
//
// Call sites in the solver go through the macros in obs/obs.hpp, which
// compile to nothing when the GPUMIP_OBS CMake option is OFF. The classes
// here are always compiled so tests and exporters work in either build.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>

namespace gpumip::obs {

/// True when this translation unit was compiled with observability wiring
/// (the GPUMIP_OBS CMake option; ON by default).
#ifdef GPUMIP_OBS_ENABLED
inline constexpr bool kObsEnabled = true;
#else
inline constexpr bool kObsEnabled = false;
#endif

/// Monotonically increasing event/volume count (messages sent, bytes
/// transferred, refactorizations performed).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or accumulated / running-maximum) double. Unlike a
/// Counter it can move in any direction and carries fractional values
/// (hit rates, idle seconds).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Accumulates (CAS loop; gauges are low-frequency instruments).
  void add(double v) noexcept;
  /// Raises the gauge to `v` if `v` is larger (running maximum).
  void set_max(double v) noexcept;
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-footprint log2-bucketed histogram over nonnegative values, with
/// exact count/sum/min/max. Bucket b holds values in (2^(b-kZeroBucket-1),
/// 2^(b-kZeroBucket)]; values <= 0 land in bucket 0. Quantiles are
/// bucket-resolution estimates (within a factor of 2), which is enough to
/// read occupancy, batch-size, and latency distributions.
class Histogram {
 public:
  /// 2^-40 .. 2^47 — covers nanosecond spans through terabyte volumes.
  static constexpr int kBuckets = 88;
  static constexpr int kZeroBucket = 40;

  void record(double v) noexcept;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded value; 0 when empty.
  double min() const noexcept;
  double max() const noexcept;
  double mean() const noexcept;
  /// Upper edge of the bucket containing the q-quantile (0 <= q <= 1);
  /// 0 when empty.
  double quantile(double q) const noexcept;
  std::uint64_t bucket_count(int bucket) const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Seeded so the first record() wins both races; min()/max() report 0
  // until something was recorded.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// One `key=value` dimension attached to an instrument lookup. Keys must
/// match `[a-z_]+` (enforced; gpumip-lint R4 checks literal call sites);
/// values are free-form and sanitized into the flattened instrument name.
struct Label {
  std::string_view key;
  std::string_view value;
};

/// True when `key` matches the label-key grammar `[a-z_]+`.
bool valid_label_key(std::string_view key) noexcept;

/// Canonical flattened instrument name `name{k1=v1,k2=v2}`: labels sorted
/// by key, values sanitized (characters that would collide with the
/// flattening syntax — `{ } , =`, whitespace, control bytes — become `_`).
/// Throws Error(kInvalidArgument) on a bad or duplicate key.
std::string labeled_name(std::string_view name, std::initializer_list<Label> labels);

/// The documentation form of a labeled family: `name{k1,k2}` (sorted keys,
/// no values). This is the string METRICS.md must backtick and what the
/// v2 export lists under "families".
std::string family_name(std::string_view name, std::initializer_list<Label> labels);

/// Process-wide instrument registry. Instruments are created on first
/// lookup of a name and live for the rest of the process, so call sites
/// may cache the returned reference (the macros in obs/obs.hpp do).
/// Names are dot-separated, lowercase, documented in docs/METRICS.md.
///
/// Labeled lookups (`counter(name, {{"method", "pdhg"}})`) share the same
/// maps under the flattened `name{key=value,...}` form, so the stable
/// reference and locking contracts hold for every label combination; the
/// family (`name{key,...}`) of each labeled instrument is tracked for the
/// v2 export and the METRICS.md glossary gate.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  Counter& counter(std::string_view name, std::initializer_list<Label> labels);
  Gauge& gauge(std::string_view name, std::initializer_list<Label> labels);
  Histogram& histogram(std::string_view name, std::initializer_list<Label> labels);

  /// Lookup by flattened name *without* creating (nullptr when absent).
  /// The benchmark's per-layer tracer (perfbench/tracer.cpp) reads through
  /// these so probing a name can never register a phantom instrument.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  /// Zeroes every instrument (registrations survive). Test isolation and
  /// bench phase boundaries only; not thread-safe against concurrent
  /// recording in the sense that racing increments may survive the sweep.
  void reset();

  /// The full registry as a JSON document (schema gpumip.metrics.v2; see
  /// docs/METRICS.md for the layout): counters/gauges/histograms maps —
  /// labeled instruments appear as flattened `name{k=v,...}` keys — and a
  /// "families" array.
  std::string to_json() const;

  /// Writes to_json() to `path` atomically enough for collection scripts
  /// (write + flush + close). Throws Error(kIoError) on any failure.
  void export_json(const std::string& path) const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

// ---- convenience free functions over the singleton ----

inline Counter& counter(std::string_view name) { return Registry::instance().counter(name); }
inline Gauge& gauge(std::string_view name) { return Registry::instance().gauge(name); }
inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}
inline Counter& counter(std::string_view name, std::initializer_list<Label> labels) {
  return Registry::instance().counter(name, labels);
}
inline Gauge& gauge(std::string_view name, std::initializer_list<Label> labels) {
  return Registry::instance().gauge(name, labels);
}
inline Histogram& histogram(std::string_view name, std::initializer_list<Label> labels) {
  return Registry::instance().histogram(name, labels);
}
inline std::string to_json() { return Registry::instance().to_json(); }
inline void export_json(const std::string& path) { Registry::instance().export_json(path); }
inline void reset_all() { Registry::instance().reset(); }

/// Exports to the path named by the GPUMIP_METRICS_OUT environment
/// variable, if set. Returns the path written to ("" when the variable is
/// unset). Used by bench mains and scripts/bench.sh.
std::string export_if_requested();

}  // namespace gpumip::obs
