#include "serve/executor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sparse.hpp"
#include "obs/profile.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench::serve {

namespace {

// ---------------------------------------------------------------------------
// Compiled convolution: one op covers all three modes. Weights are stored
// flattened to [rows, in_c*k*k]; `row_of[c]` maps output channel c to its
// weight row (-1 = dead channel, output is the constant `fill[c]`).
class ConvOp : public Op {
 public:
  ExecMode mode = ExecMode::Dense;
  int64_t in_c = 0, out_c = 0, kernel = 1, stride = 1, pad = 0;
  Tensor dense_w;                 // Dense/Shrunk: [rows, col_rows]
  CsrMatrix csr_w;                // Csr: [out_c, col_rows]
  std::vector<int32_t> row_of;    // out_c entries; -1 = dead
  std::vector<float> bias;        // out_c entries, empty = no bias add
  std::vector<float> fill;        // out_c entries: dead-channel constant

  Tensor run(const Tensor& x) const override {
    if (x.dim() != 4 || x.size(1) != in_c) {
      throw std::invalid_argument("serve::ConvOp: bad input " + shrinkbench::to_string(x.shape()));
    }
    const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
    const ConvGeometry g{in_c, h, w, kernel, kernel, stride, pad};
    const int64_t oh = g.out_h(), ow = g.out_w();
    const int64_t spatial = oh * ow;
    const int64_t ld = n * g.col_cols();
    const int64_t image_numel = in_c * h * w;
    const int64_t col_rows = g.col_rows();
    Tensor y({n, out_c, oh, ow});
    const float* b = bias.empty() ? nullptr : bias.data();

    if (mode == ExecMode::Csr) {
      // CSR keeps the monolithic lowering: csr_matmul already
      // parallelizes over its rows, so batch-1 saturates the pool
      // without the fused grid.
      Workspace::Scope scope;
      Workspace& ws = Workspace::tls();
      float* cols = ws.floats(static_cast<size_t>(col_rows * ld));
      parallel_for(0, n, grain_for(col_rows * spatial), [&](int64_t n0, int64_t n1) {
        for (int64_t i = n0; i < n1; ++i) {
          im2col_ld(g, x.data() + i * image_numel, cols + i * spatial, ld);
        }
      });
      float* out_cm = ws.floats(static_cast<size_t>(std::max<int64_t>(csr_w.rows, 1) * ld));
      csr_matmul(csr_w, cols, ld, out_cm);
      parallel_for(0, n, grain_for(out_c * spatial), [&](int64_t n0, int64_t n1) {
        for (int64_t i = n0; i < n1; ++i) {
          for (int64_t c = 0; c < out_c; ++c) {
            float* dst = y.data() + (i * out_c + c) * spatial;
            const int32_t r = row_of[static_cast<size_t>(c)];
            if (r < 0) {
              std::fill(dst, dst + spatial, fill[static_cast<size_t>(c)]);
              continue;
            }
            const float* src = out_cm + static_cast<int64_t>(r) * ld + i * spatial;
            if (b == nullptr) {
              std::copy(src, src + spatial, dst);
            } else {
              const float bc = b[c];
              for (int64_t s = 0; s < spatial; ++s) dst[s] = src[s] + bc;
            }
          }
        }
      });
      return y;
    }

    // Dense/Shrunk: the same fused (sample × out-channel-tile) schedule
    // and work floor as Conv2d::forward. row_of is monotone over live
    // channels, so a channel tile's live rows form one contiguous span
    // of the packed weight matrix and the tile GEMM runs over exactly
    // that span; dead channels take the fill path. Cell work counts
    // live rows only: a shrunk conv does no GEMM work for dead channels.
    const Grid2d grid(n, out_c, 1, kMinOcPerTile,
                      dense_w.size(0) * col_rows * spatial / std::max<int64_t>(out_c, 1),
                      ThreadPool::instance().threads());
    parallel_for(0, grid.tiles(), 1, [&](int64_t t_lo, int64_t t_hi) {
      Workspace& ws = Workspace::tls();
      int64_t t = t_lo;
      while (t < t_hi) {
        const int64_t i0 = grid.tile0(t);
        const Grid2d::Range s = grid.range0(i0);
        const int64_t row_end = std::min(t_hi, (i0 + 1) * grid.tiles1());
        const int64_t tile_ld = (s.hi - s.lo) * spatial;
        Workspace::Scope stage;  // LIFO: reclaimed before the next sample range
        float* cols = ws.floats(static_cast<size_t>(col_rows * tile_ld));
        for (int64_t i = s.lo; i < s.hi; ++i) {
          im2col_ld(g, x.data() + i * image_numel, cols + (i - s.lo) * spatial, tile_ld);
        }
        for (; t < row_end; ++t) {
          const Grid2d::Range cr = grid.range1(grid.tile1(t));
          int64_t r_lo = -1, r_hi = -1;
          for (int64_t c = cr.lo; c < cr.hi; ++c) {
            const int32_t r = row_of[static_cast<size_t>(c)];
            if (r < 0) continue;
            if (r_lo < 0) r_lo = r;
            r_hi = r + 1;
          }
          Workspace::Scope out_scope;
          float* out_cm = nullptr;
          if (r_lo >= 0) {
            out_cm = ws.floats(static_cast<size_t>((r_hi - r_lo) * tile_ld));
            gemm(false, false, r_hi - r_lo, tile_ld, col_rows, 1.0f,
                 dense_w.data() + r_lo * col_rows, col_rows, cols, tile_ld, 0.0f, out_cm,
                 tile_ld);
          }
          for (int64_t c = cr.lo; c < cr.hi; ++c) {
            const int32_t r = row_of[static_cast<size_t>(c)];
            for (int64_t i = s.lo; i < s.hi; ++i) {
              float* dst = y.data() + (i * out_c + c) * spatial;
              if (r < 0) {
                std::fill(dst, dst + spatial, fill[static_cast<size_t>(c)]);
                continue;
              }
              const float* src = out_cm + (r - r_lo) * tile_ld + (i - s.lo) * spatial;
              if (b == nullptr) {
                std::copy(src, src + spatial, dst);
              } else {
                const float bc = b[c];
                for (int64_t sp = 0; sp < spatial; ++sp) dst[sp] = src[sp] + bc;
              }
            }
          }
        }
      }
    });
    return y;
  }
};

// Compiled fully-connected layer; same row-packing story as ConvOp.
class LinearOp : public Op {
 public:
  ExecMode mode = ExecMode::Dense;
  int64_t in = 0, out = 0;
  Tensor dense_w;                 // Dense/Shrunk: [rows, in]
  CsrMatrix csr_w;                // Csr: [out, in]
  std::vector<int32_t> row_of;    // out entries; -1 = dead
  std::vector<float> bias;        // out entries, empty = no bias
  std::vector<float> fill;        // out entries: dead-output constant

  Tensor run(const Tensor& x) const override {
    if (x.dim() != 2 || x.size(1) != in) {
      throw std::invalid_argument("serve::LinearOp: bad input " + shrinkbench::to_string(x.shape()));
    }
    const int64_t n = x.size(0);
    Tensor y({n, out});

    if (mode == ExecMode::Dense) {
      // Byte-for-byte the Linear::forward eval path (bias fused via the
      // beta = 1 GEMM epilogue).
      if (!bias.empty()) {
        float* yp = y.data();
        for (int64_t i = 0; i < n; ++i) std::copy(bias.begin(), bias.end(), yp + i * out);
      }
      gemm(false, /*trans_b=*/true, n, out, in, 1.0f, x.data(), in, dense_w.data(), in,
           bias.empty() ? 0.0f : 1.0f, y.data(), out);
      return y;
    }

    Workspace::Scope scope;
    Workspace& ws = Workspace::tls();
    if (mode == ExecMode::Csr) {
      // Transpose so CSR rows stream over the batch (nn/sparse idiom).
      float* xt = ws.floats(static_cast<size_t>(in * n));
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < in; ++j) xt[static_cast<size_t>(j * n + i)] = x(i, j);
      }
      float* yt = ws.floats(static_cast<size_t>(out * n));
      csr_matmul(csr_w, xt, n, yt);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < out; ++j) y(i, j) = yt[static_cast<size_t>(j * n + i)];
      }
      if (!bias.empty()) {
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t j = 0; j < out; ++j) y(i, j) += bias[static_cast<size_t>(j)];
        }
      }
      return y;
    }

    // Shrunk: GEMM over live rows only, scatter into the full width.
    const int64_t rows = dense_w.size(0);
    float* y_live = ws.floats(static_cast<size_t>(n * std::max<int64_t>(rows, 1)));
    if (rows > 0) {
      gemm(false, /*trans_b=*/true, n, rows, in, 1.0f, x.data(), in, dense_w.data(), in, 0.0f,
           y_live, rows);
    }
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < out; ++j) {
        const int32_t r = row_of[static_cast<size_t>(j)];
        float v = r < 0 ? fill[static_cast<size_t>(j)] : y_live[i * rows + r];
        if (r >= 0 && !bias.empty()) v += bias[static_cast<size_t>(j)];
        y(i, j) = v;
      }
    }
    return y;
  }
};

// Standalone eval-mode batch norm (Dense mode, and pre-activation nets
// whose BN has no preceding conv to fold into). Mirrors the eval branch
// of BatchNorm2d::forward exactly, for bit parity in Dense mode.
class BnOp : public Op {
 public:
  int64_t channels = 0;
  std::vector<float> mean, inv_std, gamma, beta;

  Tensor run(const Tensor& x) const override {
    if (x.dim() != 4 || x.size(1) != channels) {
      throw std::invalid_argument("serve::BnOp: bad input " + shrinkbench::to_string(x.shape()));
    }
    const int64_t n = x.size(0), spatial = x.size(2) * x.size(3);
    Tensor y(x.shape());
    parallel_for(0, n * channels, grain_for(spatial), [&](int64_t p0, int64_t p1) {
      for (int64_t p = p0; p < p1; ++p) {
        const size_t c = static_cast<size_t>(p % channels);
        const float* src = x.data() + p * spatial;
        float* dst = y.data() + p * spatial;
        const float m = mean[c], is = inv_std[c], g = gamma[c], b = beta[c];
        for (int64_t k = 0; k < spatial; ++k) dst[k] = g * ((src[k] - m) * is) + b;
      }
    });
    return y;
  }
};

class ReluOp : public Op {
 public:
  Tensor run(const Tensor& x) const override {
    Tensor y = x;
    for (float& v : y.flat()) {
      if (v < 0.0f) v = 0.0f;
    }
    return y;
  }
};

class FlattenOp : public Op {
 public:
  Tensor run(const Tensor& x) const override { return x.reshaped({x.size(0), -1}); }
};

class MaxPoolOp : public Op {
 public:
  int64_t kernel = 1, stride = 1;

  Tensor run(const Tensor& x) const override {
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const int64_t oh = (h - kernel) / stride + 1, ow = (w - kernel) / stride + 1;
    Tensor y({n, c, oh, ow});
    int64_t out_idx = 0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* plane = x.data() + (i * c + ch) * h * w;
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox, ++out_idx) {
            float best = plane[(oy * stride) * w + ox * stride];
            for (int64_t ky = 0; ky < kernel; ++ky) {
              for (int64_t kx = 0; kx < kernel; ++kx) {
                const float v = plane[(oy * stride + ky) * w + ox * stride + kx];
                if (v > best) best = v;
              }
            }
            y.at(out_idx) = best;
          }
        }
      }
    }
    return y;
  }
};

class AvgPoolOp : public Op {
 public:
  int64_t kernel = 1, stride = 1;

  Tensor run(const Tensor& x) const override {
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const int64_t oh = (h - kernel) / stride + 1, ow = (w - kernel) / stride + 1;
    Tensor y({n, c, oh, ow});
    const float inv = 1.0f / static_cast<float>(kernel * kernel);
    int64_t out_idx = 0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* plane = x.data() + (i * c + ch) * h * w;
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox, ++out_idx) {
            float s = 0.0f;
            for (int64_t ky = 0; ky < kernel; ++ky) {
              for (int64_t kx = 0; kx < kernel; ++kx) {
                s += plane[(oy * stride + ky) * w + ox * stride + kx];
              }
            }
            y.at(out_idx) = s * inv;
          }
        }
      }
    }
    return y;
  }
};

class GlobalAvgPoolOp : public Op {
 public:
  Tensor run(const Tensor& x) const override {
    const int64_t n = x.size(0), c = x.size(1), spatial = x.size(2) * x.size(3);
    Tensor y({n, c});
    const float inv = 1.0f / static_cast<float>(spatial);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* src = x.data() + (i * c + ch) * spatial;
        double s = 0.0;
        for (int64_t k = 0; k < spatial; ++k) s += src[k];
        y(i, ch) = static_cast<float>(s) * inv;
      }
    }
    return y;
  }
};

class ResidualOp : public Op {
 public:
  std::vector<std::unique_ptr<Op>> main_ops;
  std::vector<std::unique_ptr<Op>> shortcut_ops;  // empty = identity
  bool final_relu = true;

  Tensor run(const Tensor& x) const override {
    Tensor m = x;
    for (const auto& op : main_ops) m = op->run(m);
    if (!shortcut_ops.empty()) {
      Tensor s = x;
      for (const auto& op : shortcut_ops) s = op->run(s);
      ops::add_inplace(m, s);
    } else {
      ops::add_inplace(m, x);
    }
    if (final_relu) {
      for (float& v : m.flat()) {
        if (v < 0.0f) v = 0.0f;
      }
    }
    return m;
  }
};

// ---------------------------------------------------------------------------
// Compilation.

struct FoldedBn {
  std::vector<float> scale;  // gamma / sqrt(var + eps), per channel
  std::vector<float> shift;  // beta - mean * scale contribution target
  std::vector<float> mean;
};

FoldedBn bn_constants(BatchNorm2d& bn) {
  const int64_t c = bn.running_mean().numel();
  FoldedBn f;
  f.scale.resize(static_cast<size_t>(c));
  f.shift.resize(static_cast<size_t>(c));
  f.mean.resize(static_cast<size_t>(c));
  for (int64_t i = 0; i < c; ++i) {
    const float is = 1.0f / std::sqrt(bn.running_var().at(i) + bn.eps());
    f.scale[static_cast<size_t>(i)] = bn.gamma().data.at(i) * is;
    f.shift[static_cast<size_t>(i)] = bn.beta().data.at(i);
    f.mean[static_cast<size_t>(i)] = bn.running_mean().at(i);
  }
  return f;
}

class Compiler {
 public:
  explicit Compiler(ExecMode mode) : mode_(mode) {}

  void emit_sequential(Sequential& seq, std::vector<std::unique_ptr<Op>>& ops) {
    const std::vector<Layer*> kids = seq.children();
    for (size_t i = 0; i < kids.size(); ++i) {
      Layer* layer = kids[i];
      if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
        BatchNorm2d* bn = nullptr;
        if (mode_ != ExecMode::Dense && i + 1 < kids.size()) {
          bn = dynamic_cast<BatchNorm2d*>(kids[i + 1]);
        }
        ops.push_back(make_conv(*conv, bn));
        if (bn != nullptr) ++i;  // consumed by the fold
      } else if (auto* linear = dynamic_cast<Linear*>(layer)) {
        ops.push_back(make_linear(*linear));
      } else if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
        ops.push_back(make_bn(*bn));
      } else if (dynamic_cast<ReLU*>(layer) != nullptr) {
        ops.push_back(std::make_unique<ReluOp>());
      } else if (dynamic_cast<Flatten*>(layer) != nullptr) {
        ops.push_back(std::make_unique<FlattenOp>());
      } else if (dynamic_cast<Dropout*>(layer) != nullptr) {
        // Inverted dropout: eval forward is the identity.
      } else if (auto* mp = dynamic_cast<MaxPool2d*>(layer)) {
        auto op = std::make_unique<MaxPoolOp>();
        op->kernel = mp->kernel();
        op->stride = mp->stride();
        ops.push_back(std::move(op));
      } else if (auto* ap = dynamic_cast<AvgPool2d*>(layer)) {
        auto op = std::make_unique<AvgPoolOp>();
        op->kernel = ap->kernel();
        op->stride = ap->stride();
        ops.push_back(std::move(op));
      } else if (dynamic_cast<GlobalAvgPool*>(layer) != nullptr) {
        ops.push_back(std::make_unique<GlobalAvgPoolOp>());
      } else if (auto* res = dynamic_cast<ResidualBlock*>(layer)) {
        auto op = std::make_unique<ResidualOp>();
        op->final_relu = res->final_relu();
        emit_sequential(*res->main(), op->main_ops);
        if (res->shortcut() != nullptr) emit_sequential(*res->shortcut(), op->shortcut_ops);
        ops.push_back(std::move(op));
      } else if (auto* inner = dynamic_cast<Sequential*>(layer)) {
        emit_sequential(*inner, ops);
      } else {
        throw std::invalid_argument("serve::compile: unsupported layer '" + layer->name() + "'");
      }
    }
  }

 private:
  std::unique_ptr<Op> make_conv(Conv2d& conv, BatchNorm2d* bn) {
    const int64_t oc = conv.out_channels();
    const int64_t col_rows = conv.in_channels() * conv.kernel() * conv.kernel();
    auto op = std::make_unique<ConvOp>();
    op->mode = mode_;
    op->in_c = conv.in_channels();
    op->out_c = oc;
    op->kernel = conv.kernel();
    op->stride = conv.stride();
    op->pad = conv.padding();

    Tensor w = conv.weight().data.clone().reshaped({oc, col_rows});
    if (mode_ != ExecMode::Dense) ops::mul_inplace(w, conv.weight().mask.reshaped({oc, col_rows}));
    std::vector<float> b;
    if (conv.bias() != nullptr) {
      b.assign(conv.bias()->data.flat().begin(), conv.bias()->data.flat().end());
    }
    if (bn != nullptr) {
      // y = gamma * (conv(x) + b - mean) * inv_std + beta
      //   = (gamma * inv_std) * conv(x) + [(b - mean) * gamma * inv_std + beta]
      const FoldedBn f = bn_constants(*bn);
      if (b.empty()) b.assign(static_cast<size_t>(oc), 0.0f);
      for (int64_t c = 0; c < oc; ++c) {
        const size_t sc = static_cast<size_t>(c);
        float* row = w.data() + c * col_rows;
        for (int64_t j = 0; j < col_rows; ++j) row[j] *= f.scale[sc];
        b[sc] = (b[sc] - f.mean[sc]) * f.scale[sc] + f.shift[sc];
      }
    }
    op->bias = std::move(b);
    pack_rows(*op, w, oc, col_rows);
    return op;
  }

  std::unique_ptr<Op> make_linear(Linear& linear) {
    const int64_t out = linear.out_features(), in = linear.in_features();
    auto op = std::make_unique<LinearOp>();
    op->mode = mode_;
    op->in = in;
    op->out = out;
    Tensor w = linear.weight().data.clone();
    if (mode_ != ExecMode::Dense) ops::mul_inplace(w, linear.weight().mask);
    if (linear.bias() != nullptr) {
      op->bias.assign(linear.bias()->data.flat().begin(), linear.bias()->data.flat().end());
    }
    pack_rows(*op, w, out, in);
    return op;
  }

  std::unique_ptr<Op> make_bn(BatchNorm2d& bn) {
    auto op = std::make_unique<BnOp>();
    op->channels = bn.running_mean().numel();
    const int64_t c = op->channels;
    op->mean.resize(static_cast<size_t>(c));
    op->inv_std.resize(static_cast<size_t>(c));
    op->gamma.resize(static_cast<size_t>(c));
    op->beta.resize(static_cast<size_t>(c));
    for (int64_t i = 0; i < c; ++i) {
      const size_t si = static_cast<size_t>(i);
      op->mean[si] = bn.running_mean().at(i);
      op->inv_std[si] = 1.0f / std::sqrt(bn.running_var().at(i) + bn.eps());
      op->gamma[si] = bn.gamma().data.at(i);
      op->beta[si] = bn.beta().data.at(i);
    }
    return op;
  }

  // Stores the weight matrix into the op according to mode: full dense,
  // CSR, or live-row-packed dense with the dead-channel fill constants.
  template <typename OpT>
  void pack_rows(OpT& op, const Tensor& w, int64_t rows, int64_t cols) {
    op.row_of.resize(static_cast<size_t>(rows));
    op.fill.assign(static_cast<size_t>(rows), 0.0f);
    if (mode_ != ExecMode::Shrunk) {
      for (int64_t r = 0; r < rows; ++r) op.row_of[static_cast<size_t>(r)] = static_cast<int32_t>(r);
      if (mode_ == ExecMode::Csr) {
        op.csr_w = csr_from_dense(w.data(), rows, cols);
      } else {
        op.dense_w = w;
      }
      return;
    }
    // Shrunk: drop all-zero rows from the GEMM. A dead channel's output
    // is exactly its bias constant (the folded weight row is zero), so
    // the scatter reconstructs the full-width activation and downstream
    // ops — residual adds included — see full tensors.
    std::vector<int32_t> live;
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = w.data() + r * cols;
      const bool dead = std::all_of(row, row + cols, [](float v) { return v == 0.0f; });
      if (dead) {
        op.row_of[static_cast<size_t>(r)] = -1;
        op.fill[static_cast<size_t>(r)] =
            op.bias.empty() ? 0.0f : op.bias[static_cast<size_t>(r)];
      } else {
        op.row_of[static_cast<size_t>(r)] = static_cast<int32_t>(live.size());
        live.push_back(static_cast<int32_t>(r));
      }
    }
    op.dense_w = Tensor({static_cast<int64_t>(live.size()), cols});
    for (size_t i = 0; i < live.size(); ++i) {
      const float* src = w.data() + static_cast<int64_t>(live[i]) * cols;
      std::copy(src, src + cols, op.dense_w.data() + static_cast<int64_t>(i) * cols);
    }
  }

  ExecMode mode_;
};

}  // namespace

std::string to_string(ExecMode mode) {
  switch (mode) {
    case ExecMode::Dense: return "dense";
    case ExecMode::Csr: return "csr";
    case ExecMode::Shrunk: return "shrunk";
  }
  return "?";
}

ExecMode exec_mode_from_name(const std::string& name) {
  if (name == "dense") return ExecMode::Dense;
  if (name == "csr") return ExecMode::Csr;
  if (name == "shrunk") return ExecMode::Shrunk;
  throw std::invalid_argument("unknown exec mode '" + name + "' (dense|csr|shrunk)");
}

Tensor Executor::forward(const Tensor& x) const {
  SB_PROFILE_SCOPE("serve.exec");
  if (x.dim() < 2) {
    throw std::invalid_argument("serve::Executor: input must be batched, got " +
                                shrinkbench::to_string(x.shape()));
  }
  Tensor h = x;
  for (const auto& op : ops_) h = op->run(h);
  return h;
}

Executor compile(Sequential& model, const Shape& sample_shape, ExecMode mode) {
  Executor exec;
  exec.mode_ = mode;
  exec.sample_shape_ = sample_shape;
  // Validates the shape (throws on mismatch) and freezes the speedup
  // accounting the bench reports against measured wall-clock.
  exec.flops_dense_ = model.flops(sample_shape);
  exec.flops_effective_ = model.effective_flops(sample_shape);
  Compiler compiler(mode);
  compiler.emit_sequential(model, exec.ops_);
  return exec;
}

}  // namespace shrinkbench::serve
