#include "nn/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "tensor/threadpool.hpp"

namespace shrinkbench {

CsrMatrix csr_from_dense(const float* dense, int64_t rows, int64_t cols, float tol) {
  // col_idx is int32_t; wider matrices would silently wrap the indices.
  if (cols > std::numeric_limits<int32_t>::max()) {
    throw std::invalid_argument("csr_from_dense: cols " + std::to_string(cols) +
                                " exceeds int32 column-index range");
  }
  CsrMatrix csr;
  csr.rows = rows;
  csr.cols = cols;
  csr.row_ptr.resize(static_cast<size_t>(rows) + 1, 0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = dense + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      if (std::fabs(row[c]) > tol) {
        csr.col_idx.push_back(static_cast<int32_t>(c));
        csr.values.push_back(row[c]);
      }
    }
    csr.row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(csr.values.size());
  }
  return csr;
}

CsrMatrix csr_from_parameter(const Parameter& param) {
  if (param.data.dim() < 2) {
    throw std::invalid_argument("csr_from_parameter: need rank >= 2 weight, got " +
                                to_string(param.data.shape()));
  }
  Tensor effective = param.data;
  ops::mul_inplace(effective, param.mask);
  const int64_t rows = effective.size(0);
  return csr_from_dense(effective.data(), rows, effective.numel() / rows);
}

void csr_matmul(const CsrMatrix& csr, const float* dense_in, int64_t n, float* dense_out) {
  // Rows are independent (each writes only its own out_row and reduces in
  // ascending-entry order within itself), so fanning out over static
  // contiguous row blocks is bit-identical to the serial loop for every
  // SB_THREADS — the thread-pool determinism contract. Grain is sized by
  // the average row's multiply-add work.
  const int64_t avg_row_work =
      csr.rows == 0 ? 0 : (csr.nnz() * n) / std::max<int64_t>(csr.rows, 1) + n;
  parallel_for(0, csr.rows, grain_for(avg_row_work), [&](int64_t r0, int64_t r1) {
    csr_matmul_rows(csr, r0, r1, dense_in, n, dense_out + r0 * n);
  });
}

void csr_matmul_rows(const CsrMatrix& csr, int64_t r_lo, int64_t r_hi, const float* dense_in,
                     int64_t n, float* out) {
  for (int64_t r = r_lo; r < r_hi; ++r) {
    float* out_row = out + (r - r_lo) * n;
    std::fill(out_row, out_row + n, 0.0f);
    const int64_t begin = csr.row_ptr[static_cast<size_t>(r)];
    const int64_t end = csr.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t e = begin; e < end; ++e) {
      const float v = csr.values[static_cast<size_t>(e)];
      const float* in_row = dense_in + csr.col_idx[static_cast<size_t>(e)] * n;
      for (int64_t j = 0; j < n; ++j) out_row[j] += v * in_row[j];
    }
  }
}

Tensor csr_to_dense(const CsrMatrix& csr) {
  Tensor dense({csr.rows, csr.cols});
  for (int64_t r = 0; r < csr.rows; ++r) {
    for (int64_t e = csr.row_ptr[static_cast<size_t>(r)];
         e < csr.row_ptr[static_cast<size_t>(r) + 1]; ++e) {
      dense(r, csr.col_idx[static_cast<size_t>(e)]) = csr.values[static_cast<size_t>(e)];
    }
  }
  return dense;
}

}  // namespace shrinkbench
