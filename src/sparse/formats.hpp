// Sparse matrix storage: triplet (COO) builder and compressed CSR/CSC.
//
// The MIP constraint matrix is assembled as triplets, compressed once, and
// then consumed by two code paths (paper section 5.4): the dense path
// expands to linalg::Matrix for GPU-friendly kernels; the sparse path works
// on CSR/CSC directly.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "support/error.hpp"

namespace gpumip::sparse {

/// One nonzero in triplet form.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

/// Compressed sparse row. Rows are sorted by column index within each row.
struct Csr {
  int rows = 0;
  int cols = 0;
  std::vector<int> row_start;  // size rows+1
  std::vector<int> col_index;  // size nnz
  std::vector<double> values;  // size nnz

  int nnz() const noexcept { return static_cast<int>(col_index.size()); }
  double density() const noexcept {
    return rows == 0 || cols == 0 ? 0.0
                                  : static_cast<double>(nnz()) / (static_cast<double>(rows) * cols);
  }
};

/// Compressed sparse column (same fields, column-major).
struct Csc {
  int rows = 0;
  int cols = 0;
  std::vector<int> col_start;  // size cols+1
  std::vector<int> row_index;  // size nnz
  std::vector<double> values;

  int nnz() const noexcept { return static_cast<int>(row_index.size()); }
  double density() const noexcept {
    return rows == 0 || cols == 0 ? 0.0
                                  : static_cast<double>(nnz()) / (static_cast<double>(rows) * cols);
  }
};

/// Builds CSR from triplets; duplicate (row,col) entries are summed and
/// exact zeros (after summing) below `drop_tol` are dropped.
Csr csr_from_triplets(int rows, int cols, const std::vector<Triplet>& triplets,
                      double drop_tol = 0.0);

/// Builds CSC from triplets.
Csc csc_from_triplets(int rows, int cols, const std::vector<Triplet>& triplets,
                      double drop_tol = 0.0);

Csc csr_to_csc(const Csr& a);

/// Transpose as CSR (rows and cols swap).
Csr transpose(const Csr& a);

linalg::Matrix to_dense(const Csr& a);
linalg::Matrix to_dense(const Csc& a);
Csr csr_from_dense(const linalg::Matrix& a, double drop_tol = 0.0);

/// Structural equality + value closeness, for tests.
bool approx_equal(const Csr& a, const Csr& b, double tol);

/// Extracts column j as a dense vector.
linalg::Vector dense_column(const Csc& a, int j);

}  // namespace gpumip::sparse
