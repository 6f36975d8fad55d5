#include "linalg/batched.hpp"

#include <cmath>

namespace gpumip::linalg {

using gpu::KernelCost;

DeviceBatch::DeviceBatch(gpu::Device& device, int count, int n, std::string label)
    : buffer_(device.alloc_doubles(static_cast<std::size_t>(count) * n * n, std::move(label))),
      count_(count),
      n_(n) {
  check_arg(count > 0 && n > 0, "DeviceBatch: count and n must be positive");
}

DeviceBatch DeviceBatch::upload(gpu::Device& device, gpu::StreamId stream,
                                const std::vector<Matrix>& mats, std::string label) {
  check_arg(!mats.empty(), "DeviceBatch::upload: empty batch");
  const int n = mats.front().rows();
  for (const Matrix& m : mats) {
    check_arg(m.rows() == n && m.cols() == n, "DeviceBatch::upload: matrices must be equal-size square");
  }
  DeviceBatch out(device, static_cast<int>(mats.size()), n, std::move(label));
  // Pack host-side, then a single H2D transfer: this is the point of the
  // batched interface (one latency charge for the whole batch).
  std::vector<double> packed(static_cast<std::size_t>(out.count_) * n * n);
  for (int i = 0; i < out.count_; ++i) {
    std::copy(mats[static_cast<std::size_t>(i)].data(),
              mats[static_cast<std::size_t>(i)].data() + static_cast<std::size_t>(n) * n,
              packed.begin() + static_cast<std::ptrdiff_t>(i) * n * n);
  }
  device.copy_h2d(stream, out.buffer_, packed.data(), packed.size() * sizeof(double));
  return out;
}

std::vector<std::vector<int>> batched_getrf(gpu::StreamId stream, DeviceBatch& batch,
                                            std::vector<int>* singular) {
  check_arg(batch.valid(), "batched_getrf: invalid batch");
  gpu::Device& device = *batch.device();
  const int n = batch.n();
  const int count = batch.count();
  std::vector<std::vector<int>> pivots(static_cast<std::size_t>(count));
  const double flops = count * (2.0 / 3.0) * std::pow(static_cast<double>(n), 3.0);
  KernelCost cost = KernelCost::dense(flops, static_cast<double>(count) * n * n);
  // One launch covering the whole batch: occupancy scales with total work.
  cost.occupancy = occupancy_for_elements(static_cast<std::size_t>(count) * n * n);
  device.launch(stream, cost, [&] {
    for (int b = 0; b < count; ++b) {
      double* d = batch.matrix_data(b);
      auto at = [&](int r, int c) -> double& { return d[static_cast<std::size_t>(c) * n + r]; };
      auto& piv = pivots[static_cast<std::size_t>(b)];
      piv.assign(static_cast<std::size_t>(n), 0);
      bool bad = false;
      for (int k = 0; k < n && !bad; ++k) {
        int pivot_row = k;
        double pivot_abs = std::fabs(at(k, k));
        for (int i = k + 1; i < n; ++i) {
          const double v = std::fabs(at(i, k));
          if (v > pivot_abs) {
            pivot_abs = v;
            pivot_row = i;
          }
        }
        if (pivot_abs < 1e-12) {
          bad = true;
          break;
        }
        piv[static_cast<std::size_t>(k)] = pivot_row;
        if (pivot_row != k) {
          for (int c = 0; c < n; ++c) std::swap(at(k, c), at(pivot_row, c));
        }
        const double inv = 1.0 / at(k, k);
        for (int i = k + 1; i < n; ++i) {
          const double mult = at(i, k) * inv;
          at(i, k) = mult;
          if (mult == 0.0) continue;
          for (int c = k + 1; c < n; ++c) at(i, c) -= mult * at(k, c);
        }
      }
      if (bad) {
        piv.clear();
        if (singular != nullptr) singular->push_back(b);
      }
    }
  });
  return pivots;
}

void batched_getrs(gpu::StreamId stream, const DeviceBatch& lu,
                   const std::vector<std::vector<int>>& pivots, DeviceVector& rhs) {
  const int n = lu.n();
  const int count = lu.count();
  check_arg(static_cast<int>(pivots.size()) == count, "batched_getrs: pivot count mismatch");
  check_arg(rhs.size() == n * count, "batched_getrs: rhs size mismatch");
  gpu::Device& device = *lu.device();
  KernelCost cost = KernelCost::dense(count * 2.0 * static_cast<double>(n) * n,
                                      static_cast<double>(count) * (n * n + n));
  cost.occupancy = occupancy_for_elements(static_cast<std::size_t>(count) * n * n);
  device.launch(stream, cost, [&] {
    for (int b = 0; b < count; ++b) {
      const auto& piv = pivots[static_cast<std::size_t>(b)];
      if (piv.empty()) continue;  // singular member: skipped
      const double* d = lu.matrix_data(b);
      auto at = [&](int r, int c) { return d[static_cast<std::size_t>(c) * n + r]; };
      double* x = rhs.span().data() + static_cast<std::size_t>(b) * n;
      for (int k = 0; k < n; ++k) {
        const int p = piv[static_cast<std::size_t>(k)];
        if (p != k) std::swap(x[k], x[p]);
      }
      for (int i = 0; i < n; ++i) {
        double sum = x[i];
        for (int j = 0; j < i; ++j) sum -= at(i, j) * x[j];
        x[i] = sum;
      }
      for (int i = n - 1; i >= 0; --i) {
        double sum = x[i];
        for (int j = i + 1; j < n; ++j) sum -= at(i, j) * x[j];
        x[i] = sum / at(i, i);
      }
    }
  });
}

}  // namespace gpumip::linalg
