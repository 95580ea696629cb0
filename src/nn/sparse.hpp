// Sparse inference kernels.
//
// The paper (§2.3) notes that unstructured pruning "may not be arranged in
// a fashion conducive to speedups using modern libraries and hardware" —
// parameter and FLOP counts are proxies, not wall-clock. This module makes
// that claim measurable in-repo: masked weights can be compiled to CSR and
// multiplied with sparse kernels. The serving executor (serve::compile
// with ExecMode::Csr) is the one place conv and linear layers run on
// them; bench/ablation_sparse_inference drives it to locate the sparsity
// level where sparse execution actually overtakes the dense kernels
// (typically far above the 50-75% a "2-4x compression" headline
// suggests).
//
// Inference-only: backward is intentionally unsupported.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace shrinkbench {

/// Compressed sparse row matrix over float32.
struct CsrMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> row_ptr;   // rows + 1 entries
  std::vector<int32_t> col_idx;   // nnz entries
  std::vector<float> values;      // nnz entries

  int64_t nnz() const { return static_cast<int64_t>(values.size()); }
  double density() const {
    return rows * cols == 0 ? 0.0 : static_cast<double>(nnz()) / (rows * cols);
  }
};

/// Builds CSR from a dense row-major matrix, dropping entries where
/// |value| <= tol (masked weights are exactly zero, so tol = 0 suffices).
CsrMatrix csr_from_dense(const float* dense, int64_t rows, int64_t cols, float tol = 0.0f);

/// Builds CSR from a parameter's effective weights: data ⊙ mask flattened
/// to [rows = size(0), cols = numel/size(0)].
CsrMatrix csr_from_parameter(const Parameter& param);

/// dense_out[rows, n] = csr[rows, cols] * dense_in[cols, n]; out must be
/// preallocated, is overwritten. Fans out over static row blocks of
/// csr_matmul_rows, so the result is bit-identical at any SB_THREADS.
void csr_matmul(const CsrMatrix& csr, const float* dense_in, int64_t n, float* dense_out);

/// Serial kernel behind csr_matmul and the serving executor's CSR conv:
/// rows [r_lo, r_hi) of csr * dense_in[cols, n], written to
/// out[(r - r_lo) * n + j] (overwritten). Every output element sums its
/// row's entries in ascending order, whatever the row range or n, so
/// splitting rows or columns never changes a bit.
void csr_matmul_rows(const CsrMatrix& csr, int64_t r_lo, int64_t r_hi, const float* dense_in,
                     int64_t n, float* out);

/// Reconstructs the dense matrix (for tests).
Tensor csr_to_dense(const CsrMatrix& csr);

}  // namespace shrinkbench
