// Device-resident dense linear algebra.
//
// DeviceMatrix/DeviceVector own simulated device memory; the dev_* kernels
// compute on that memory directly (the simulator backs device memory with
// host storage) and charge the device's cost model. This is the layer that
// plays the role of cuBLAS/cuSOLVER/MAGMA in the paper's design (section 4):
// LU factorization, triangular solves, and the eta (PFI) basis update as a
// dense device kernel.
#pragma once

#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "linalg/eta.hpp"
#include "linalg/matrix.hpp"

namespace gpumip::linalg {

/// SIMD occupancy a kernel over `elements` data items can achieve: tiny
/// problems cannot fill a device (paper section 5.5); saturation is reached
/// around 2^17 elements (loosely: 80 SMs x 2048 threads).
double occupancy_for_elements(std::size_t elements);

/// Column-major dense matrix living in (simulated) device memory.
class DeviceMatrix {
 public:
  DeviceMatrix() = default;
  DeviceMatrix(gpu::Device& device, int rows, int cols, std::string label = "devmat");

  /// Allocates and uploads a host matrix (charges H2D transfer).
  static DeviceMatrix upload(gpu::Device& device, gpu::StreamId stream, const Matrix& host,
                             std::string label = "devmat");

  /// Downloads to host (charges D2H transfer).
  Matrix download(gpu::StreamId stream) const;

  /// Overwrites device contents from host (charges H2D).
  void assign(gpu::StreamId stream, const Matrix& host);

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }
  bool valid() const noexcept { return buffer_.valid(); }
  gpu::Device* device() const noexcept { return buffer_.device(); }
  std::size_t size_bytes() const noexcept { return buffer_.size_bytes(); }

  double* data() { return buffer_.as<double>().data(); }
  const double* data() const { return buffer_.as<double>().data(); }
  double& at(int r, int c) { return data()[static_cast<std::size_t>(c) * rows_ + r]; }
  double at(int r, int c) const { return data()[static_cast<std::size_t>(c) * rows_ + r]; }

 private:
  gpu::DeviceBuffer buffer_;
  int rows_ = 0;
  int cols_ = 0;
};

/// Dense vector living in (simulated) device memory.
class DeviceVector {
 public:
  DeviceVector() = default;
  DeviceVector(gpu::Device& device, int n, std::string label = "devvec");
  static DeviceVector upload(gpu::Device& device, gpu::StreamId stream,
                             std::span<const double> host, std::string label = "devvec");
  Vector download(gpu::StreamId stream) const;
  void assign(gpu::StreamId stream, std::span<const double> host);

  int size() const noexcept { return n_; }
  bool valid() const noexcept { return buffer_.valid(); }
  gpu::Device* device() const noexcept { return buffer_.device(); }
  std::span<double> span() { return buffer_.as<double>(); }
  std::span<const double> span() const { return buffer_.as<double>(); }

 private:
  gpu::DeviceBuffer buffer_;
  int n_ = 0;
};

// ---- device kernels (compute + charge) ----

/// In-place LU with partial pivoting; returns pivot rows. Charges 2/3 n³.
std::vector<int> dev_getrf(gpu::StreamId stream, DeviceMatrix& a);
/// Solves using factors from dev_getrf (in place on device vector b).
void dev_getrs(gpu::StreamId stream, const DeviceMatrix& lu, const std::vector<int>& pivots,
               DeviceVector& b);
/// B⁻¹ := E B⁻¹ — the PFI basis update as one dense device kernel.
void dev_apply_eta(gpu::StreamId stream, const Eta& eta, DeviceMatrix& binv);

}  // namespace gpumip::linalg
