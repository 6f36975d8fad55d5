// Hot-path instrumentation macros over obs/metrics.hpp and obs/span.hpp.
//
// Every macro takes a string *literal* metric name and caches the registry
// lookup in a function-local static, so the steady-state cost of a call
// site is one relaxed atomic RMW (counters/gauges) or a few (histograms).
// When the GPUMIP_OBS CMake option is OFF the macros compile to nothing —
// the argument expressions are parsed (so instrumentation cannot rot) but
// never evaluated, and the metric name string is not emitted into the
// binary (scripts/check.sh's obs gate asserts this on a bench binary).
//
// Instruments whose label value varies at runtime (the per-rank simmpi
// families: literal names, a `rank` label set per Comm) cannot use these
// macros; they cache obs::Counter*/obs::Gauge* handles manually behind
// #ifdef GPUMIP_OBS_ENABLED. Every name, unit, and the paper claim
// it quantifies is catalogued in docs/METRICS.md; the bench-smoke gate
// cross-checks exported names against that glossary.
#pragma once

#include "obs/metrics.hpp"
#include "obs/span.hpp"

#define GPUMIP_OBS_CONCAT_IMPL_(a, b) a##b
#define GPUMIP_OBS_CONCAT_(a, b) GPUMIP_OBS_CONCAT_IMPL_(a, b)

#ifdef GPUMIP_OBS_ENABLED

/// Bumps counter `name` by 1.
#define GPUMIP_OBS_COUNT(name)                                        \
  do {                                                                \
    static ::gpumip::obs::Counter& gpumip_obs_metric_ =               \
        ::gpumip::obs::counter(name);                                 \
    gpumip_obs_metric_.add(1);                                        \
  } while (false)

/// Adds `amount` (nonnegative integral) to counter `name`.
#define GPUMIP_OBS_ADD(name, amount)                                  \
  do {                                                                \
    static ::gpumip::obs::Counter& gpumip_obs_metric_ =               \
        ::gpumip::obs::counter(name);                                 \
    gpumip_obs_metric_.add(static_cast<std::uint64_t>(amount));       \
  } while (false)

/// Sets gauge `name` to `value`.
#define GPUMIP_OBS_GAUGE_SET(name, value)                             \
  do {                                                                \
    static ::gpumip::obs::Gauge& gpumip_obs_metric_ =                 \
        ::gpumip::obs::gauge(name);                                   \
    gpumip_obs_metric_.set(static_cast<double>(value));               \
  } while (false)

/// Raises gauge `name` to `value` if larger (running maximum).
#define GPUMIP_OBS_GAUGE_MAX(name, value)                             \
  do {                                                                \
    static ::gpumip::obs::Gauge& gpumip_obs_metric_ =                 \
        ::gpumip::obs::gauge(name);                                   \
    gpumip_obs_metric_.set_max(static_cast<double>(value));           \
  } while (false)

/// Records `value` into histogram `name`.
#define GPUMIP_OBS_RECORD(name, value)                                \
  do {                                                                \
    static ::gpumip::obs::Histogram& gpumip_obs_metric_ =             \
        ::gpumip::obs::histogram(name);                               \
    gpumip_obs_metric_.record(static_cast<double>(value));            \
  } while (false)

/// Records `value` into histogram `name` `count` times in one update.
#define GPUMIP_OBS_RECORD_N(name, value, count)                       \
  do {                                                                \
    static ::gpumip::obs::Histogram& gpumip_obs_metric_ =             \
        ::gpumip::obs::histogram(name);                               \
    gpumip_obs_metric_.record_n(static_cast<double>(value),           \
                                static_cast<std::uint64_t>(count));   \
  } while (false)

/// Times the rest of the enclosing scope into histogram `name` (seconds).
#define GPUMIP_OBS_SPAN(name) \
  ::gpumip::obs::Span GPUMIP_OBS_CONCAT_(gpumip_obs_span_, __LINE__)(name)

// ---- labeled variants ----
//
// The trailing variadic arguments are one or more brace-initialized
// {"key", "value"} obs::Label pairs. Both keys and values must be
// compile-time constant at the call site: the flattened lookup is cached
// in a function-local static, so a site like
//   GPUMIP_OBS_COUNT_L("gpumip.lp.solves", {"method", "pdhg"});
// costs one relaxed RMW in steady state, same as the unlabeled macros.
// Sites with *runtime* label values (per-rank instruments) call
// obs::counter(name, {...}) directly and cache the reference themselves
// behind #ifdef GPUMIP_OBS_ENABLED, exactly like dynamic-name sites.

/// Bumps labeled counter `name{...}` by 1.
#define GPUMIP_OBS_COUNT_L(name, ...)                                 \
  do {                                                                \
    static ::gpumip::obs::Counter& gpumip_obs_metric_ =               \
        ::gpumip::obs::counter(name, {__VA_ARGS__});                  \
    gpumip_obs_metric_.add(1);                                        \
  } while (false)

/// Adds `amount` (nonnegative integral) to labeled counter `name{...}`.
#define GPUMIP_OBS_ADD_L(name, amount, ...)                           \
  do {                                                                \
    static ::gpumip::obs::Counter& gpumip_obs_metric_ =               \
        ::gpumip::obs::counter(name, {__VA_ARGS__});                  \
    gpumip_obs_metric_.add(static_cast<std::uint64_t>(amount));       \
  } while (false)

/// Sets labeled gauge `name{...}` to `value`.
#define GPUMIP_OBS_GAUGE_SET_L(name, value, ...)                      \
  do {                                                                \
    static ::gpumip::obs::Gauge& gpumip_obs_metric_ =                 \
        ::gpumip::obs::gauge(name, {__VA_ARGS__});                    \
    gpumip_obs_metric_.set(static_cast<double>(value));               \
  } while (false)

/// Records `value` into labeled histogram `name{...}`.
#define GPUMIP_OBS_RECORD_L(name, value, ...)                         \
  do {                                                                \
    static ::gpumip::obs::Histogram& gpumip_obs_metric_ =             \
        ::gpumip::obs::histogram(name, {__VA_ARGS__});                \
    gpumip_obs_metric_.record(static_cast<double>(value));            \
  } while (false)

/// Times the rest of the enclosing scope into labeled histogram
/// `name{...}` (seconds). The flattened name is also the trace span name.
#define GPUMIP_OBS_SPAN_L(name, ...)                                        \
  static const ::std::string GPUMIP_OBS_CONCAT_(gpumip_obs_span_name_,      \
                                                __LINE__) =                 \
      ::gpumip::obs::labeled_name(name, {__VA_ARGS__});                     \
  ::gpumip::obs::Span GPUMIP_OBS_CONCAT_(gpumip_obs_span_, __LINE__)(       \
      GPUMIP_OBS_CONCAT_(gpumip_obs_span_name_, __LINE__))

#else  // !GPUMIP_OBS_ENABLED

// Parsed but never evaluated (the assert.hpp idiom): the expressions stay
// semantically checked in every build, at zero runtime and code-size cost.
#define GPUMIP_OBS_COUNT(name)                          \
  do {                                                  \
    if (false) static_cast<void>(name);                 \
  } while (false)
#define GPUMIP_OBS_ADD(name, amount)                    \
  do {                                                  \
    if (false) {                                        \
      static_cast<void>(name);                          \
      static_cast<void>(amount);                        \
    }                                                   \
  } while (false)
#define GPUMIP_OBS_GAUGE_SET(name, value) GPUMIP_OBS_ADD(name, value)
#define GPUMIP_OBS_GAUGE_MAX(name, value) GPUMIP_OBS_ADD(name, value)
#define GPUMIP_OBS_RECORD(name, value) GPUMIP_OBS_ADD(name, value)
#define GPUMIP_OBS_RECORD_N(name, value, count)         \
  do {                                                  \
    if (false) {                                        \
      static_cast<void>(name);                          \
      static_cast<void>(value);                         \
      static_cast<void>(count);                         \
    }                                                   \
  } while (false)
#define GPUMIP_OBS_SPAN(name)                           \
  do {                                                  \
    if (false) static_cast<void>(name);                 \
  } while (false)

// Labeled variants: the label pairs are parsed through obs::labeled_name
// so keys stay type- and grammar-checked in OFF builds, but never
// evaluated — no name or label string reaches the binary.
#define GPUMIP_OBS_COUNT_L(name, ...)                                       \
  do {                                                                      \
    if (false) static_cast<void>(::gpumip::obs::labeled_name(name, {__VA_ARGS__})); \
  } while (false)
#define GPUMIP_OBS_ADD_L(name, amount, ...)                                 \
  do {                                                                      \
    if (false) {                                                            \
      static_cast<void>(::gpumip::obs::labeled_name(name, {__VA_ARGS__}));  \
      static_cast<void>(amount);                                            \
    }                                                                       \
  } while (false)
#define GPUMIP_OBS_GAUGE_SET_L(name, value, ...) GPUMIP_OBS_ADD_L(name, value, __VA_ARGS__)
#define GPUMIP_OBS_RECORD_L(name, value, ...) GPUMIP_OBS_ADD_L(name, value, __VA_ARGS__)
#define GPUMIP_OBS_SPAN_L(name, ...) GPUMIP_OBS_COUNT_L(name, __VA_ARGS__)

#endif  // GPUMIP_OBS_ENABLED
