// MAGMA-style batched dense routines (paper sections 4.3, 5.5).
//
// A batched routine applies the same operation to many small independent
// matrices in ONE kernel launch: the launch overhead is paid once and the
// combined work can fill the device even when each matrix alone cannot.
// The contrast with looping dev_* calls over streams is exactly experiment
// E7's subject.
#pragma once

#include <vector>

#include "linalg/device_blas.hpp"

namespace gpumip::linalg {

/// A batch of equally-sized square matrices resident on the device.
class DeviceBatch {
 public:
  DeviceBatch() = default;

  /// Allocates a batch of `count` n x n matrices.
  DeviceBatch(gpu::Device& device, int count, int n, std::string label = "batch");

  /// Uploads all matrices in one H2D transfer.
  static DeviceBatch upload(gpu::Device& device, gpu::StreamId stream,
                            const std::vector<Matrix>& mats, std::string label = "batch");

  int count() const noexcept { return count_; }
  int n() const noexcept { return n_; }
  bool valid() const noexcept { return buffer_.valid(); }
  gpu::Device* device() const noexcept { return buffer_.device(); }

  double* matrix_data(int i) {
    return buffer_.as<double>().data() + static_cast<std::size_t>(i) * n_ * n_;
  }
  const double* matrix_data(int i) const {
    return buffer_.as<double>().data() + static_cast<std::size_t>(i) * n_ * n_;
  }

 private:
  gpu::DeviceBuffer buffer_;
  int count_ = 0;
  int n_ = 0;
};

/// Batched LU: factors every matrix in one launch; returns pivots per
/// matrix. Indices of matrices found singular are reported in `singular`
/// (they are left partially factored); throws nothing for per-item
/// failures so one bad matrix does not poison the batch.
std::vector<std::vector<int>> batched_getrf(gpu::StreamId stream, DeviceBatch& batch,
                                            std::vector<int>* singular = nullptr);

/// Batched solve: one launch solving lu[i] x = b[i] for all i.
/// `rhs` holds count contiguous vectors of length n.
void batched_getrs(gpu::StreamId stream, const DeviceBatch& lu,
                   const std::vector<std::vector<int>>& pivots, DeviceVector& rhs);

}  // namespace gpumip::linalg
