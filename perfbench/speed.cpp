#include "speed.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kN = 48;      // 48x48 doubles: 18 KiB, resident in L1/L2
constexpr int kLuReps = 8;  // ~0.25 ms
constexpr int kSortLength = 2048;
constexpr int kSortReps = 2;  // ~0.3 ms

volatile double g_sink;

/// LU factorization with partial pivoting of a fixed diagonally dominant
/// matrix: dense floating-point work with the row access pattern of the
/// program's own factorizations.
double lu_work() {
  static const std::vector<double> base = [] {
    std::vector<double> a(static_cast<std::size_t>(kN * kN));
    for (int i = 0; i < kN * kN; ++i) {
      a[static_cast<std::size_t>(i)] = 1.0 + ((i * 7919) % 101) / 50.0 + (i % (kN + 1) == 0 ? kN : 0);
    }
    return a;
  }();
  static std::vector<double> a(base.size());
  double acc = 0.0;
  for (int rep = 0; rep < kLuReps; ++rep) {
    std::copy(base.begin(), base.end(), a.begin());
    for (int k = 0; k < kN; ++k) {
      int p = k;
      for (int i = k + 1; i < kN; ++i) {
        if (std::fabs(a[static_cast<std::size_t>(i * kN + k)]) > std::fabs(a[static_cast<std::size_t>(p * kN + k)])) p = i;
      }
      if (p != k) {
        for (int j = 0; j < kN; ++j) std::swap(a[static_cast<std::size_t>(k * kN + j)], a[static_cast<std::size_t>(p * kN + j)]);
      }
      const double pivot = a[static_cast<std::size_t>(k * kN + k)];
      for (int i = k + 1; i < kN; ++i) {
        const double f = a[static_cast<std::size_t>(i * kN + k)] / pivot;
        for (int j = k + 1; j < kN; ++j) a[static_cast<std::size_t>(i * kN + j)] -= f * a[static_cast<std::size_t>(k * kN + j)];
      }
    }
    acc += a.back();
  }
  return acc;
}

/// Sorting pseudo-random keys and counting them in a std::map: branchy,
/// allocating, pointer-chasing work like the program's bookkeeping.
double sort_map_work() {
  static std::vector<int> keys(kSortLength);
  std::uint32_t x = 12345;
  long acc = 0;
  for (int rep = 0; rep < kSortReps; ++rep) {
    for (int& key : keys) {
      x = x * 1664525u + 1013904223u;
      key = static_cast<int>(x >> 8);
    }
    std::sort(keys.begin(), keys.end());
    std::map<int, int> counts;
    for (int k = 0; k < kSortLength / 8; ++k) counts[keys[static_cast<std::size_t>((k * 37) % kSortLength)] % 1000] += k;
    for (const auto& entry : counts) acc += entry.second;
  }
  return static_cast<double>(acc);
}

}  // namespace

void SpeedLog::sample(int times) {
  for (int r = 0; r < times; ++r) {
    const double t0 = now_s();
    g_sink = lu_work() + sort_map_work();
    at_.push_back(t0);
    kernel_s_.push_back(now_s() - t0);
  }
}

double SpeedLog::median_s() const {
  if (kernel_s_.empty()) throw std::logic_error("SpeedLog: no kernel sample");
  std::vector<double> all = kernel_s_;
  const auto mid = all.begin() + static_cast<std::ptrdiff_t>(all.size() / 2);
  std::nth_element(all.begin(), mid, all.end());
  return *mid;
}

double SpeedLog::rescale(double start, double seconds) const {
  const auto lo = std::lower_bound(at_.begin(), at_.end(), start - kWindowS);
  const auto hi = std::upper_bound(at_.begin(), at_.end(), start + seconds + kWindowS);
  if (lo == hi) throw std::logic_error("SpeedLog: no kernel sample near the call");
  std::vector<double> near(kernel_s_.begin() + (lo - at_.begin()), kernel_s_.begin() + (hi - at_.begin()));
  const auto mid = near.begin() + static_cast<std::ptrdiff_t>(near.size() / 2);
  std::nth_element(near.begin(), mid, near.end());
  return seconds * kReferenceS / *mid;
}

}  // namespace perfbench
