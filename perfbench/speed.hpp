// The host's speed over a run, measured with a fixed kernel that belongs to
// the benchmark, so that host times can be rescaled to a reference speed.
//
// On a shared host the same call runs up to ~60% slower for tens of seconds
// at a time, uniformly over everything the thread runs (README.md,
// "Findings"). A slow phase that covers a whole run moves every wall-clock
// metric of that run, and no aggregation over the run's own calls can tell
// it from a slower program. The kernel's time, sampled between program calls,
// slows down in the same phases and not with the program, so a call's time
// divided by the kernel time around it is the call's cost at a fixed speed.
#pragma once

#include <vector>

namespace perfbench {

class SpeedLog {
 public:
  /// The kernel's median time on a quiet reference machine (README.md,
  /// "Host speed"): a rescaled time reads as seconds on that machine.
  static constexpr double kReferenceS = 500e-6;
  /// Samples up to this far before and after a call count as its speed.
  static constexpr double kWindowS = 1.0;

  /// Times the kernel `times` times and records each sample.
  void sample(int times = 1);

  /// Median kernel time over every sample so far.
  double median_s() const;

  /// `seconds` of a call that began at `start` (now_s()), at reference
  /// speed: seconds · kReferenceS / (median kernel time within kWindowS of
  /// the call). Throws std::logic_error when no sample is that close.
  double rescale(double start, double seconds) const;

 private:
  std::vector<double> at_;  ///< sample start (now_s()), ascending
  std::vector<double> kernel_s_;
};

}  // namespace perfbench
