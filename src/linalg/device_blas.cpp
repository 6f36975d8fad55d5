#include "linalg/device_blas.hpp"

#include <algorithm>
#include <cmath>

namespace gpumip::linalg {

using gpu::KernelCost;

double occupancy_for_elements(std::size_t elements) {
  constexpr double kSaturation = 131072.0;  // ~80 SMs x 2048 threads, loosely
  return std::clamp(static_cast<double>(elements) / kSaturation, 1.0 / 1024.0, 1.0);
}

DeviceMatrix::DeviceMatrix(gpu::Device& device, int rows, int cols, std::string label)
    : buffer_(device.alloc_doubles(static_cast<std::size_t>(rows) * cols, std::move(label))),
      rows_(rows),
      cols_(cols) {}

DeviceMatrix DeviceMatrix::upload(gpu::Device& device, gpu::StreamId stream, const Matrix& host,
                                  std::string label) {
  DeviceMatrix out(device, host.rows(), host.cols(), std::move(label));
  device.copy_h2d(stream, out.buffer_, host.data(), host.size() * sizeof(double));
  return out;
}

Matrix DeviceMatrix::download(gpu::StreamId stream) const {
  Matrix host(rows_, cols_);
  device()->copy_d2h(stream, buffer_, host.data(), host.size() * sizeof(double));
  return host;
}

void DeviceMatrix::assign(gpu::StreamId stream, const Matrix& host) {
  check_arg(host.rows() == rows_ && host.cols() == cols_, "DeviceMatrix::assign shape mismatch");
  device()->copy_h2d(stream, buffer_, host.data(), host.size() * sizeof(double));
}

DeviceVector::DeviceVector(gpu::Device& device, int n, std::string label)
    : buffer_(device.alloc_doubles(static_cast<std::size_t>(n), std::move(label))), n_(n) {}

DeviceVector DeviceVector::upload(gpu::Device& device, gpu::StreamId stream,
                                  std::span<const double> host, std::string label) {
  DeviceVector out(device, static_cast<int>(host.size()), std::move(label));
  device.copy_h2d(stream, out.buffer_, host.data(), host.size_bytes());
  return out;
}

Vector DeviceVector::download(gpu::StreamId stream) const {
  Vector host(static_cast<std::size_t>(n_));
  device()->copy_d2h(stream, buffer_, host.data(), host.size() * sizeof(double));
  return host;
}

void DeviceVector::assign(gpu::StreamId stream, std::span<const double> host) {
  check_arg(static_cast<int>(host.size()) == n_, "DeviceVector::assign size mismatch");
  device()->copy_h2d(stream, buffer_, host.data(), host.size_bytes());
}

std::vector<int> dev_getrf(gpu::StreamId stream, DeviceMatrix& a) {
  check_arg(a.rows() == a.cols(), "dev_getrf: square matrix required");
  gpu::Device& device = *a.device();
  const int n = a.rows();
  std::vector<int> pivots(static_cast<std::size_t>(n));
  const double flops = (2.0 / 3.0) * std::pow(static_cast<double>(n), 3.0);
  KernelCost cost = KernelCost::dense(flops, static_cast<double>(n) * n);
  cost.occupancy = occupancy_for_elements(static_cast<std::size_t>(n) * n);
  bool singular = false;
  device.launch(stream, cost, [&] {
    double* d = a.data();
    auto at = [&](int r, int c) -> double& { return d[static_cast<std::size_t>(c) * n + r]; };
    for (int k = 0; k < n; ++k) {
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
        singular = true;
        return;
      }
      pivots[static_cast<std::size_t>(k)] = pivot_row;
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
  });
  if (singular) throw NumericalError("dev_getrf: numerically singular matrix");
  return pivots;
}

void dev_getrs(gpu::StreamId stream, const DeviceMatrix& lu, const std::vector<int>& pivots,
               DeviceVector& b) {
  const int n = lu.rows();
  check_arg(lu.cols() == n && b.size() == n && static_cast<int>(pivots.size()) == n,
            "dev_getrs: shape mismatch");
  gpu::Device& device = *lu.device();
  KernelCost cost = KernelCost::dense(2.0 * static_cast<double>(n) * n,
                                      static_cast<double>(n) * n);
  cost.occupancy = occupancy_for_elements(static_cast<std::size_t>(n) * n);
  device.launch(stream, cost, [&] {
    const double* d = lu.data();
    auto at = [&](int r, int c) { return d[static_cast<std::size_t>(c) * n + r]; };
    auto xs = b.span();
    for (int k = 0; k < n; ++k) {
      const int p = pivots[static_cast<std::size_t>(k)];
      if (p != k) std::swap(xs[static_cast<std::size_t>(k)], xs[static_cast<std::size_t>(p)]);
    }
    for (int i = 0; i < n; ++i) {
      double sum = xs[static_cast<std::size_t>(i)];
      for (int j = 0; j < i; ++j) sum -= at(i, j) * xs[static_cast<std::size_t>(j)];
      xs[static_cast<std::size_t>(i)] = sum;  // unit diagonal L
    }
    for (int i = n - 1; i >= 0; --i) {
      double sum = xs[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < n; ++j) sum -= at(i, j) * xs[static_cast<std::size_t>(j)];
      xs[static_cast<std::size_t>(i)] = sum / at(i, i);
    }
  });
}

void dev_apply_eta(gpu::StreamId stream, const Eta& eta, DeviceMatrix& binv) {
  check_arg(binv.rows() == static_cast<int>(eta.column.size()), "dev_apply_eta: shape mismatch");
  gpu::Device& device = *binv.device();
  const std::size_t mn = static_cast<std::size_t>(binv.rows()) * binv.cols();
  KernelCost cost = KernelCost::dense(2.0 * static_cast<double>(mn), static_cast<double>(mn));
  cost.occupancy = occupancy_for_elements(mn);
  device.launch(stream, cost, [&] {
    for (int c = 0; c < binv.cols(); ++c) {
      double* col = binv.data() + static_cast<std::size_t>(c) * binv.rows();
      const double xr = col[eta.pivot_row];
      if (xr == 0.0) continue;
      for (int r = 0; r < binv.rows(); ++r) col[r] += eta.column[static_cast<std::size_t>(r)] * xr;
      col[eta.pivot_row] = eta.column[static_cast<std::size_t>(eta.pivot_row)] * xr;
    }
  });
}

}  // namespace gpumip::linalg
