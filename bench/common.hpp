// Shared helpers for the experiment benches. Every bench binary prints its
// experiment's series (the paper-shaped table) from the simulated clocks,
// then writes its observability exports. Host wall time is perfbench's job.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpumip::bench {

inline void title(const std::string& id, const std::string& text) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), text.c_str());
  std::printf("================================================================\n");
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// Called after the tables: dumps the process-wide metrics registry to
/// $GPUMIP_METRICS_OUT if set (this is how scripts/bench.sh harvests the
/// observability counters; the simulated tables are deterministic, so the
/// export is too) and the event trace to $GPUMIP_TRACE_OUT if set
/// (obs/trace.hpp).
inline void write_exports() {
  const std::string exported = obs::export_if_requested();
  if (!exported.empty()) std::printf("metrics written to %s\n", exported.c_str());
  const std::string traced = obs::trace::export_if_requested();
  if (!traced.empty()) std::printf("trace written to %s\n", traced.c_str());
}

}  // namespace gpumip::bench
