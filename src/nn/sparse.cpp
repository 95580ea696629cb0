#include "nn/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "tensor/im2col.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

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
    for (int64_t r = r0; r < r1; ++r) {
      float* out_row = dense_out + r * n;
      std::fill(out_row, out_row + n, 0.0f);
      const int64_t begin = csr.row_ptr[static_cast<size_t>(r)];
      const int64_t end = csr.row_ptr[static_cast<size_t>(r) + 1];
      for (int64_t e = begin; e < end; ++e) {
        const float v = csr.values[static_cast<size_t>(e)];
        const float* in_row = dense_in + csr.col_idx[static_cast<size_t>(e)] * n;
        for (int64_t j = 0; j < n; ++j) out_row[j] += v * in_row[j];
      }
    }
  });
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

SparseConv2dInference::SparseConv2dInference(Conv2d& conv)
    : conv_(conv),
      weights_(csr_from_parameter(conv.weight())),
      in_c_(conv.in_channels()),
      out_c_(conv.out_channels()),
      kernel_(conv.kernel()),
      stride_(conv.stride()),
      pad_(conv.padding()) {}

Tensor SparseConv2dInference::forward(const Tensor& x) const {
  if (x.dim() != 4 || x.size(1) != in_c_) {
    throw std::invalid_argument("SparseConv2dInference: bad input " + to_string(x.shape()));
  }
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const ConvGeometry g{in_c_, h, w, kernel_, kernel_, stride_, pad_};
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t ld = n * g.col_cols();
  const int64_t spatial = oh * ow;
  const int64_t image_numel = in_c_ * h * w;

  // Scratch lives in the thread-local arena (PR 3's dense-path pattern):
  // after warm-up, steady-state forwards perform zero heap allocations.
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  float* cols = ws.floats(static_cast<size_t>(g.col_rows() * ld));
  parallel_for(0, n, grain_for(g.col_rows() * g.col_cols()), [&](int64_t n0, int64_t n1) {
    for (int64_t i = n0; i < n1; ++i) {
      im2col_ld(g, x.data() + i * image_numel, cols + i * g.col_cols(), ld);
    }
  });
  float* out_cm = ws.floats(static_cast<size_t>(out_c_ * ld));
  csr_matmul(weights_, cols, ld, out_cm);

  Tensor y({n, out_c_, oh, ow});
  const float* bias = conv_.bias() != nullptr ? conv_.bias()->data.data() : nullptr;
  parallel_for(0, n, grain_for(out_c_ * spatial), [&](int64_t n0, int64_t n1) {
    for (int64_t i = n0; i < n1; ++i) {
      for (int64_t c = 0; c < out_c_; ++c) {
        const float* src = out_cm + c * ld + i * spatial;
        float* dst = y.data() + (i * out_c_ + c) * spatial;
        if (bias == nullptr) {
          std::copy(src, src + spatial, dst);
        } else {
          const float b = bias[c];
          for (int64_t s = 0; s < spatial; ++s) dst[s] = src[s] + b;
        }
      }
    }
  });
  return y;
}

SparseLinearInference::SparseLinearInference(Linear& linear)
    : linear_(linear), weights_(csr_from_parameter(linear.weight())) {}

Tensor SparseLinearInference::forward(const Tensor& x) const {
  if (x.dim() != 2 || x.size(1) != weights_.cols) {
    throw std::invalid_argument("SparseLinearInference: bad input " + to_string(x.shape()));
  }
  const int64_t n = x.size(0), in = weights_.cols, out = weights_.rows;
  // Workspace scratch: steady-state forwards allocate nothing on the heap.
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  // Transpose x to [in, n] so CSR rows stream over the batch dimension.
  float* xt = ws.floats(static_cast<size_t>(in * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < in; ++j) xt[static_cast<size_t>(j * n + i)] = x(i, j);
  }
  float* yt = ws.floats(static_cast<size_t>(out * n));
  csr_matmul(weights_, xt, n, yt);

  Tensor y({n, out});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < out; ++j) y(i, j) = yt[static_cast<size_t>(j * n + i)];
  }
  if (const Parameter* bias = linear_.bias()) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < out; ++j) y(i, j) += bias->data.at(j);
    }
  }
  return y;
}

}  // namespace shrinkbench
