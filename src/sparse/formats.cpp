#include "sparse/formats.hpp"

#include <algorithm>
#include <cmath>

#include "check/invariants.hpp"
#include "support/assert.hpp"

namespace gpumip::sparse {

namespace {

void validate_triplets(int rows, int cols, const std::vector<Triplet>& triplets) {
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      check_arg(false, "triplet index out of range: (" + std::to_string(t.row) + "," +
                           std::to_string(t.col) + ")");
    }
  }
}

}  // namespace

Csr csr_from_triplets(int rows, int cols, const std::vector<Triplet>& triplets, double drop_tol) {
  check_arg(rows >= 0 && cols >= 0, "csr_from_triplets: negative dimensions");
  validate_triplets(rows, cols, triplets);
  std::vector<Triplet> sorted = triplets;
  std::sort(sorted.begin(), sorted.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  Csr out;
  out.rows = rows;
  out.cols = cols;
  out.row_start.assign(static_cast<std::size_t>(rows) + 1, 0);
  std::size_t i = 0;
  for (int r = 0; r < rows; ++r) {
    out.row_start[static_cast<std::size_t>(r)] = static_cast<int>(out.col_index.size());
    while (i < sorted.size() && sorted[i].row == r) {
      const int c = sorted[i].col;
      double sum = 0.0;
      while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
        sum += sorted[i].value;
        ++i;
      }
      if (std::fabs(sum) > drop_tol) {
        out.col_index.push_back(c);
        out.values.push_back(sum);
      }
    }
  }
  out.row_start[static_cast<std::size_t>(rows)] = static_cast<int>(out.col_index.size());
  GPUMIP_VALIDATE(check::check_sparse(out));
  return out;
}

Csc csc_from_triplets(int rows, int cols, const std::vector<Triplet>& triplets, double drop_tol) {
  return csr_to_csc(csr_from_triplets(rows, cols, triplets, drop_tol));
}

Csc csr_to_csc(const Csr& a) {
  Csc out;
  out.rows = a.rows;
  out.cols = a.cols;
  out.col_start.assign(static_cast<std::size_t>(a.cols) + 1, 0);
  out.row_index.resize(static_cast<std::size_t>(a.nnz()));
  out.values.resize(static_cast<std::size_t>(a.nnz()));
  // Counting sort by column.
  for (int c : a.col_index) ++out.col_start[static_cast<std::size_t>(c) + 1];
  for (int c = 0; c < a.cols; ++c) {
    out.col_start[static_cast<std::size_t>(c) + 1] += out.col_start[static_cast<std::size_t>(c)];
  }
  std::vector<int> cursor(out.col_start.begin(), out.col_start.end() - 1);
  for (int r = 0; r < a.rows; ++r) {
    for (int k = a.row_start[static_cast<std::size_t>(r)];
         k < a.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = a.col_index[static_cast<std::size_t>(k)];
      const int dst = cursor[static_cast<std::size_t>(c)]++;
      out.row_index[static_cast<std::size_t>(dst)] = r;
      out.values[static_cast<std::size_t>(dst)] = a.values[static_cast<std::size_t>(k)];
    }
  }
  GPUMIP_VALIDATE(check::check_sparse(out));
  return out;
}

Csr csc_to_csr(const Csc& a) {
  Csr out;
  out.rows = a.rows;
  out.cols = a.cols;
  out.row_start.assign(static_cast<std::size_t>(a.rows) + 1, 0);
  out.col_index.resize(static_cast<std::size_t>(a.nnz()));
  out.values.resize(static_cast<std::size_t>(a.nnz()));
  for (int r : a.row_index) ++out.row_start[static_cast<std::size_t>(r) + 1];
  for (int r = 0; r < a.rows; ++r) {
    out.row_start[static_cast<std::size_t>(r) + 1] += out.row_start[static_cast<std::size_t>(r)];
  }
  std::vector<int> cursor(out.row_start.begin(), out.row_start.end() - 1);
  for (int c = 0; c < a.cols; ++c) {
    for (int k = a.col_start[static_cast<std::size_t>(c)];
         k < a.col_start[static_cast<std::size_t>(c) + 1]; ++k) {
      const int r = a.row_index[static_cast<std::size_t>(k)];
      const int dst = cursor[static_cast<std::size_t>(r)]++;
      out.col_index[static_cast<std::size_t>(dst)] = c;
      out.values[static_cast<std::size_t>(dst)] = a.values[static_cast<std::size_t>(k)];
    }
  }
  GPUMIP_VALIDATE(check::check_sparse(out));
  return out;
}

Csr transpose(const Csr& a) {
  const Csc csc = csr_to_csc(a);
  Csr out;
  out.rows = a.cols;
  out.cols = a.rows;
  out.row_start = csc.col_start;
  out.col_index = csc.row_index;
  out.values = csc.values;
  GPUMIP_VALIDATE(check::check_sparse(out));
  return out;
}

linalg::Matrix to_dense(const Csr& a) {
  linalg::Matrix out(a.rows, a.cols);
  for (int r = 0; r < a.rows; ++r) {
    for (int k = a.row_start[static_cast<std::size_t>(r)];
         k < a.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      out(r, a.col_index[static_cast<std::size_t>(k)]) = a.values[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

linalg::Matrix to_dense(const Csc& a) {
  linalg::Matrix out(a.rows, a.cols);
  for (int c = 0; c < a.cols; ++c) {
    for (int k = a.col_start[static_cast<std::size_t>(c)];
         k < a.col_start[static_cast<std::size_t>(c) + 1]; ++k) {
      out(a.row_index[static_cast<std::size_t>(k)], c) = a.values[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

Csr csr_from_dense(const linalg::Matrix& a, double drop_tol) {
  std::vector<Triplet> triplets;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (std::fabs(a(r, c)) > drop_tol) triplets.push_back({r, c, a(r, c)});
    }
  }
  return csr_from_triplets(a.rows(), a.cols(), triplets);
}

bool approx_equal(const Csr& a, const Csr& b, double tol) {
  if (a.rows != b.rows || a.cols != b.cols) return false;
  return linalg::max_abs_diff(to_dense(a), to_dense(b)) <= tol;
}

linalg::Vector dense_column(const Csc& a, int j) {
  check_arg(j >= 0 && j < a.cols, "dense_column: bad column");
  linalg::Vector out(static_cast<std::size_t>(a.rows), 0.0);
  for (int k = a.col_start[static_cast<std::size_t>(j)];
       k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
    out[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(k)])] =
        a.values[static_cast<std::size_t>(k)];
  }
  return out;
}

}  // namespace gpumip::sparse
