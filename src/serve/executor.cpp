#include "serve/executor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_grid.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sparse.hpp"
#include "obs/profile.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench::serve {

namespace {

using OpList = std::vector<std::unique_ptr<Op>>;

[[noreturn]] void bad_input(const char* op, const Shape& in) {
  throw std::invalid_argument(std::string("serve::") + op + ": bad input " +
                              shrinkbench::to_string(in));
}

// Shapes flowing through `ops` for input shape `in`: in, then each op's
// output (validating every op against its input).
std::vector<Shape> shapes_of(const OpList& ops, const Shape& in) {
  std::vector<Shape> shapes;
  shapes.reserve(ops.size() + 1);
  shapes.push_back(in);
  for (const auto& op : ops) shapes.push_back(op->out_shape(shapes.back()));
  return shapes;
}

// Runs `ops` over x (shapes from shapes_of), the last op writing y.
// Intermediates ping-pong between two buffers of the calling thread's
// workspace, sized to the largest; x is never written, so a residual
// block's input stays live in its caller's buffer while the branches run.
void run_ops(const OpList& ops, const std::vector<Shape>& shapes, const float* x, float* y) {
  if (ops.empty()) {
    std::copy(x, x + numel_of(shapes.front()), y);
    return;
  }
  int64_t inter = 0;
  for (size_t i = 1; i < ops.size(); ++i) inter = std::max(inter, numel_of(shapes[i]));
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  float* buf[2] = {nullptr, nullptr};
  if (ops.size() > 1) buf[0] = ws.floats(static_cast<size_t>(inter));
  if (ops.size() > 2) buf[1] = ws.floats(static_cast<size_t>(inter));
  const float* cur = x;
  for (size_t i = 0; i < ops.size(); ++i) {
    float* dst = i + 1 == ops.size() ? y : buf[i % 2];
    SB_PROFILE_SCOPE(ops[i]->kind());
    ops[i]->run(cur, shapes[i], dst);
    cur = dst;
  }
}

// ---------------------------------------------------------------------------
// Compiled convolution: one op and one loop cover all three modes.
// Weights are stored flattened to [rows, in_c*k*k]; `row_of[c]` maps
// output channel c to its weight row (-1 = dead channel, output is the
// constant `fill[c]`).
class ConvOp : public Op {
 public:
  ExecMode mode = ExecMode::Dense;
  int64_t in_c = 0, out_c = 0, kernel = 1, stride = 1, pad = 0;
  Tensor dense_w;                 // Dense/Shrunk: [rows, col_rows]
  CsrMatrix csr_w;                // Csr: [out_c, col_rows]
  std::vector<int32_t> row_of;    // out_c entries; -1 = dead
  std::vector<float> bias;        // out_c entries, empty = no bias add
  std::vector<float> fill;        // out_c entries: dead-channel constant
  // Shrunk: [rows, out_h*out_w] bias plane that replaces `bias` when
  // folded constant input channels meet zero padding (see compact());
  // empty otherwise.
  std::vector<float> plane;
  bool relu = false;              // folded ReLU: clamp in the write-back

  const char* kind() const override { return "serve.op.conv"; }

  Shape out_shape(const Shape& in) const override {
    if (in.size() != 4 || in[1] != in_c) bad_input("ConvOp", in);
    const ConvGeometry g = geometry(in);
    if (g.out_h() <= 0 || g.out_w() <= 0) bad_input("ConvOp", in);
    return {in[0], out_c, g.out_h(), g.out_w()};
  }

  void run(const float* x, const Shape& in, float* y) const override {
    const ConvGeometry g = geometry(in);
    const int64_t row_madds =
        mode == ExecMode::Csr ? csr_w.nnz() : dense_w.size(0) * g.col_rows();
    conv_grid(g, in[0], out_c, row_madds, x,
              [&](Grid2d::Range cr, Grid2d::Range b, const float* cols, int64_t ld,
                  Workspace& ws) { run_block(cr, b, cols, ld, g, y, ws); });
  }

 private:
  ConvGeometry geometry(const Shape& in) const {
    return ConvGeometry{in_c, in[2], in[3], kernel, kernel, stride, pad};
  }

  // Channels `cr` of samples `b`, whose columns are staged in `cols`.
  // row_of is monotone over live channels, so the live rows of a channel
  // tile form one contiguous span of the weight matrix and the block
  // multiply runs over exactly that span; dead channels take the fill.
  void run_block(Grid2d::Range cr, Grid2d::Range b, const float* cols, int64_t ld,
                 const ConvGeometry& g, float* y, Workspace& ws) const {
    const int64_t col_rows = g.col_rows();
    const int64_t spatial = g.out_h() * g.out_w();
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
      out_cm = ws.floats(static_cast<size_t>((r_hi - r_lo) * ld));
      if (mode == ExecMode::Csr) {
        csr_matmul_rows(csr_w, r_lo, r_hi, cols, ld, out_cm);
      } else {
        gemm(false, false, r_hi - r_lo, ld, col_rows, 1.0f, dense_w.data() + r_lo * col_rows,
             col_rows, cols, ld, 0.0f, out_cm, ld);
      }
    }
    for (int64_t c = cr.lo; c < cr.hi; ++c) {
      const int32_t r = row_of[static_cast<size_t>(c)];
      const float* bc = bias.empty() ? nullptr : bias.data() + c;
      for (int64_t i = b.lo; i < b.hi; ++i) {
        float* dst = y + (i * out_c + c) * spatial;
        if (r < 0) {
          std::fill(dst, dst + spatial, fill[static_cast<size_t>(c)]);
          continue;
        }
        const float* src = out_cm + (r - r_lo) * ld + (i - b.lo) * spatial;
        if (plane.empty()) {
          write_back(src, spatial, bc, relu, dst);
          continue;
        }
        const float* pl = plane.data() + r * spatial;
        for (int64_t k = 0; k < spatial; ++k) {
          const float v = src[k] + pl[k];
          dst[k] = relu ? clamp0(v) : v;
        }
      }
    }
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
  bool relu = false;              // folded ReLU: clamp in the write-back

  const char* kind() const override { return "serve.op.linear"; }

  Shape out_shape(const Shape& s) const override {
    if (s.size() != 2 || s[1] != in) bad_input("LinearOp", s);
    return {s[0], out};
  }

  void run(const float* x, const Shape& s, float* y) const override {
    const int64_t n = s[0];
    if (mode == ExecMode::Dense) {
      // Linear::forward's own kernel, then the folded clamp.
      linear_forward(x, n, in, out, dense_w.data(), bias.empty() ? nullptr : bias.data(), y);
      if (relu) {
        for (int64_t k = 0; k < n * out; ++k) y[k] = clamp0(y[k]);
      }
      return;
    }

    Workspace::Scope scope;
    Workspace& ws = Workspace::tls();
    if (mode == ExecMode::Csr) {
      // Transpose so CSR rows stream over the batch (nn/sparse idiom).
      float* xt = ws.floats(static_cast<size_t>(in * n));
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < in; ++j) xt[j * n + i] = x[i * in + j];
      }
      float* yt = ws.floats(static_cast<size_t>(out * n));
      csr_matmul(csr_w, xt, n, yt);
      for (int64_t i = 0; i < n; ++i) {
        write_back_row([&](int64_t j) { return yt[j * n + i]; }, y + i * out);
      }
      return;
    }

    // Shrunk: GEMM over live rows only, scattered into the output width
    // (all rows live once compact() has dropped the dead ones).
    const int64_t rows = dense_w.size(0);
    float* y_live = ws.floats(static_cast<size_t>(n * std::max<int64_t>(rows, 1)));
    if (rows > 0) {
      gemm(false, /*trans_b=*/true, n, rows, in, 1.0f, x, in, dense_w.data(), in, 0.0f, y_live,
           rows);
    }
    for (int64_t i = 0; i < n; ++i) {
      write_back_row([&](int64_t r) { return y_live[i * rows + r]; }, y + i * out);
    }
  }

 private:
  // One sample's outputs: live entries read via `live(row)`, plus bias
  // and clamp; dead entries take their (compile-time clamped) fill.
  template <typename Live>
  void write_back_row(Live live, float* dst) const {
    for (int64_t j = 0; j < out; ++j) {
      const int32_t r = row_of[static_cast<size_t>(j)];
      if (r < 0) {
        dst[j] = fill[static_cast<size_t>(j)];
        continue;
      }
      float v = live(r);
      if (!bias.empty()) v += bias[static_cast<size_t>(j)];
      dst[j] = relu ? clamp0(v) : v;
    }
  }
};

// Standalone eval-mode batch norm (Dense mode, and pre-activation nets
// whose BN has no preceding conv to fold into). Mirrors the eval branch
// of BatchNorm2d::forward exactly, for bit parity in Dense mode.
class BnOp : public Op {
 public:
  int64_t channels = 0;
  std::vector<float> mean, inv_std, gamma, beta;
  bool relu = false;  // folded ReLU: clamp in the write-back

  const char* kind() const override { return "serve.op.bn"; }

  Shape out_shape(const Shape& in) const override {
    if (in.size() != 4 || in[1] != channels) bad_input("BnOp", in);
    return in;
  }

  void run(const float* x, const Shape& in, float* y) const override {
    const int64_t spatial = in[2] * in[3];
    parallel_for(0, in[0] * channels, grain_for(spatial), [&](int64_t p0, int64_t p1) {
      for (int64_t p = p0; p < p1; ++p) {
        const size_t c = static_cast<size_t>(p % channels);
        const float* src = x + p * spatial;
        float* dst = y + p * spatial;
        const float m = mean[c], is = inv_std[c], g = gamma[c], b = beta[c];
        if (relu) {
          for (int64_t k = 0; k < spatial; ++k) dst[k] = clamp0(g * ((src[k] - m) * is) + b);
        } else {
          for (int64_t k = 0; k < spatial; ++k) dst[k] = g * ((src[k] - m) * is) + b;
        }
      }
    });
  }
};

// A ReLU with no conv, linear or BN op right before it to fold into.
class ReluOp : public Op {
 public:
  const char* kind() const override { return "serve.op.relu"; }
  Shape out_shape(const Shape& in) const override { return in; }
  void run(const float* x, const Shape& in, float* y) const override {
    parallel_for(0, numel_of(in), kMinElemsPerChunk, [&](int64_t k0, int64_t k1) {
      for (int64_t k = k0; k < k1; ++k) y[k] = clamp0(x[k]);
    });
  }
};

class FlattenOp : public Op {
 public:
  const char* kind() const override { return "serve.op.flatten"; }
  Shape out_shape(const Shape& in) const override {
    if (in[0] <= 0) bad_input("FlattenOp", in);
    return {in[0], numel_of(in) / in[0]};
  }
  void run(const float* x, const Shape& in, float* y) const override {
    std::copy(x, x + numel_of(in), y);
  }
};

// Max/average pooling; both run in parallel over (sample × channel)
// planes, each plane's output written by exactly one chunk.
class PoolOp : public Op {
 public:
  bool max = true;
  int64_t kernel = 1, stride = 1;

  const char* kind() const override { return max ? "serve.op.maxpool" : "serve.op.avgpool"; }

  Shape out_shape(const Shape& in) const override {
    if (in.size() != 4 || in[2] < kernel || in[3] < kernel) bad_input("PoolOp", in);
    return {in[0], in[1], (in[2] - kernel) / stride + 1, (in[3] - kernel) / stride + 1};
  }

  void run(const float* x, const Shape& in, float* y) const override {
    if (max) {
      pool<true>(x, in, y);
    } else {
      pool<false>(x, in, y);
    }
  }

 private:
  template <bool Max>
  void pool(const float* x, const Shape& in, float* y) const {
    const int64_t h = in[2], w = in[3];
    const int64_t oh = (h - kernel) / stride + 1, ow = (w - kernel) / stride + 1;
    const float inv = 1.0f / static_cast<float>(kernel * kernel);
    parallel_for(0, in[0] * in[1], grain_for(oh * ow * kernel * kernel),
                 [&](int64_t p0, int64_t p1) {
      for (int64_t p = p0; p < p1; ++p) {
        const float* plane = x + p * h * w;
        float* dst = y + p * oh * ow;
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox) {
            const float* win = plane + (oy * stride) * w + ox * stride;
            float acc = Max ? win[0] : 0.0f;
            for (int64_t ky = 0; ky < kernel; ++ky) {
              for (int64_t kx = 0; kx < kernel; ++kx) {
                const float v = win[ky * w + kx];
                if constexpr (Max) {
                  if (v > acc) acc = v;
                } else {
                  acc += v;
                }
              }
            }
            dst[oy * ow + ox] = Max ? acc : acc * inv;
          }
        }
      }
    });
  }
};

class GlobalAvgPoolOp : public Op {
 public:
  const char* kind() const override { return "serve.op.gap"; }

  Shape out_shape(const Shape& in) const override {
    if (in.size() != 4) bad_input("GlobalAvgPoolOp", in);
    return {in[0], in[1]};
  }

  void run(const float* x, const Shape& in, float* y) const override {
    const int64_t spatial = in[2] * in[3];
    const float inv = 1.0f / static_cast<float>(spatial);
    parallel_for(0, in[0] * in[1], grain_for(spatial), [&](int64_t p0, int64_t p1) {
      for (int64_t p = p0; p < p1; ++p) {
        const float* src = x + p * spatial;
        double s = 0.0;
        for (int64_t k = 0; k < spatial; ++k) s += src[k];
        y[p] = static_cast<float>(s) * inv;
      }
    });
  }
};

class ResidualOp : public Op {
 public:
  OpList main_ops;
  OpList shortcut_ops;  // empty = identity
  bool final_relu = true;

  const char* kind() const override { return "serve.op.residual"; }

  Shape out_shape(const Shape& in) const override {
    Shape m = shapes_of(main_ops, in).back();
    if (m != shapes_of(shortcut_ops, in).back()) bad_input("ResidualOp", in);
    return m;
  }

  void run(const float* x, const Shape& in, float* y) const override {
    const std::vector<Shape> main_shapes = shapes_of(main_ops, in);
    run_ops(main_ops, main_shapes, x, y);
    Workspace::Scope scope;
    const float* sc = x;
    if (!shortcut_ops.empty()) {
      float* s = Workspace::tls().floats(static_cast<size_t>(numel_of(main_shapes.back())));
      run_ops(shortcut_ops, shapes_of(shortcut_ops, in), x, s);
      sc = s;
    }
    // main + shortcut, then the block's ReLU: ResidualBlock's arithmetic.
    parallel_for(0, numel_of(main_shapes.back()), kMinElemsPerChunk, [&](int64_t k0, int64_t k1) {
      for (int64_t k = k0; k < k1; ++k) {
        const float v = y[k] + sc[k];
        y[k] = final_relu ? clamp0(v) : v;
      }
    });
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
        if (ops.empty() || !fold_relu(*ops.back())) ops.push_back(std::make_unique<ReluOp>());
      } else if (dynamic_cast<Flatten*>(layer) != nullptr) {
        ops.push_back(std::make_unique<FlattenOp>());
      } else if (dynamic_cast<Dropout*>(layer) != nullptr) {
        // Inverted dropout: eval forward is the identity.
      } else if (auto* mp = dynamic_cast<MaxPool2d*>(layer)) {
        ops.push_back(make_pool(true, mp->kernel(), mp->stride()));
      } else if (auto* ap = dynamic_cast<AvgPool2d*>(layer)) {
        ops.push_back(make_pool(false, ap->kernel(), ap->stride()));
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
  // Folds a ReLU into the op that produces its input, when that op has a
  // write-back to clamp in: conv, linear, BN. A dead channel's output is
  // its fill everywhere, so clamping the fill once here is exact.
  static bool fold_relu(Op& op) {
    auto fold = [](auto& o) {
      o.relu = true;
      for (float& f : o.fill) f = clamp0(f);
      return true;
    };
    if (auto* c = dynamic_cast<ConvOp*>(&op)) return fold(*c);
    if (auto* l = dynamic_cast<LinearOp*>(&op)) return fold(*l);
    if (auto* b = dynamic_cast<BnOp*>(&op)) {
      b->relu = true;
      return true;
    }
    return false;
  }

  static std::unique_ptr<Op> make_pool(bool max, int64_t kernel, int64_t stride) {
    auto op = std::make_unique<PoolOp>();
    op->max = max;
    op->kernel = kernel;
    op->stride = stride;
    return op;
  }

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
    // the scatter reconstructs the full-width activation; compact() then
    // removes the dead channels from activations that only feed another
    // conv or linear op.
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

// ---------------------------------------------------------------------------
// Shrunk layouts: dead channels leave the activations. compact() applies
// the rules of "Shrunk layouts" in executor.hpp after emission and ReLU
// folding; the fills it folds are already clamped where a ReLU was folded.

// The layout of one activation along axis 1 (channels, or features once
// flattened).
struct Layout {
  std::vector<int32_t> slot;  // per channel: index among the stored ones, -1 = constant
  std::vector<float> value;   // per channel: its value when slot < 0

  static Layout full(int64_t channels) {
    Layout l;
    l.slot.resize(static_cast<size_t>(channels));
    std::iota(l.slot.begin(), l.slot.end(), 0);
    l.value.assign(static_cast<size_t>(channels), 0.0f);
    return l;
  }
  int64_t stored() const {
    return std::count_if(slot.begin(), slot.end(), [](int32_t s) { return s >= 0; });
  }
  bool is_full() const { return stored() == static_cast<int64_t>(slot.size()); }
};

// Whether op i's output reaches a conv or linear op through pass-through
// ops only (not through a residual block or to the end of the list).
bool feeds_consumer(const OpList& ops, size_t i) {
  for (size_t j = i + 1; j < ops.size(); ++j) {
    const Op* op = ops[j].get();
    if (dynamic_cast<const ConvOp*>(op) != nullptr) return true;
    if (dynamic_cast<const LinearOp*>(op) != nullptr) return true;
    if (dynamic_cast<const ResidualOp*>(op) != nullptr) return false;
  }
  return false;
}

// The layout after pass-through op `op`, whose input (shape `in`, batch
// 1, full width) has layout `lay`. Flatten spreads each channel over its
// plane's features. The other ops keep the channel axis; their constants
// come from running the op itself on planes that hold them, so a constant
// channel takes the very arithmetic a stored one would (every pass-through
// op maps a constant plane to a constant plane). A standalone BN keeps
// only the stored channels' parameters.
Layout through(Op& op, const Shape& in, const Layout& lay) {
  const Shape out_shape = op.out_shape(in);
  if (lay.is_full()) return Layout::full(out_shape[1]);
  const int64_t channels = in[1];
  const int64_t plane = numel_of(in) / channels;
  Layout out;
  if (dynamic_cast<FlattenOp*>(&op) != nullptr) {
    for (int64_t c = 0; c < channels; ++c) {
      const int32_t s = lay.slot[static_cast<size_t>(c)];
      for (int64_t k = 0; k < plane; ++k) {
        out.slot.push_back(s < 0 ? -1 : static_cast<int32_t>(s * plane + k));
        out.value.push_back(lay.value[static_cast<size_t>(c)]);
      }
    }
    return out;
  }
  std::vector<float> x(static_cast<size_t>(numel_of(in)), 0.0f);
  std::vector<float> y(static_cast<size_t>(numel_of(out_shape)));
  for (int64_t c = 0; c < channels; ++c) {
    std::fill_n(x.begin() + c * plane, plane, lay.value[static_cast<size_t>(c)]);
  }
  op.run(x.data(), in, y.data());
  const int64_t out_plane = numel_of(out_shape) / channels;
  out.slot = lay.slot;
  out.value.resize(static_cast<size_t>(channels));
  for (int64_t c = 0; c < channels; ++c) {
    out.value[static_cast<size_t>(c)] = y[static_cast<size_t>(c * out_plane)];
  }
  if (auto* bn = dynamic_cast<BnOp*>(&op)) {
    const int64_t stored = lay.stored();
    for (std::vector<float>* v : {&bn->mean, &bn->inv_std, &bn->gamma, &bn->beta}) {
      std::vector<float> kept(static_cast<size_t>(stored));
      for (int64_t c = 0; c < channels; ++c) {
        const int32_t s = lay.slot[static_cast<size_t>(c)];
        if (s >= 0) kept[static_cast<size_t>(s)] = (*v)[static_cast<size_t>(c)];
      }
      *v = std::move(kept);
    }
    bn->channels = stored;
  }
  return out;
}

// Adds `folded[row_of[c]]` (one value per live row, or per live row and
// output position when `spatial` > 1 and the values vary) to the bias of
// every live output c, turning the bias into `plane` when they vary.
// No-op when everything folded is 0.
void fold_into_bias(const std::vector<int32_t>& row_of, const std::vector<double>& folded,
                    int64_t spatial, std::vector<float>& bias, std::vector<float>* plane) {
  if (std::all_of(folded.begin(), folded.end(), [](double v) { return v == 0.0; })) return;
  const int64_t rows = static_cast<int64_t>(folded.size()) / spatial;
  bool uniform = true;
  for (int64_t r = 0; r < rows && uniform; ++r) {
    const double* f = folded.data() + r * spatial;
    uniform = std::all_of(f, f + spatial, [&](double v) { return v == f[0]; });
  }
  if (bias.empty()) bias.assign(row_of.size(), 0.0f);
  if (!uniform) plane->resize(static_cast<size_t>(rows * spatial));
  for (size_t c = 0; c < row_of.size(); ++c) {
    const int64_t r = row_of[c];
    if (r < 0) continue;
    const double* f = folded.data() + r * spatial;
    if (uniform) {
      bias[c] = static_cast<float>(bias[c] + f[0]);
      continue;
    }
    float* dst = plane->data() + r * spatial;
    for (int64_t p = 0; p < spatial; ++p) dst[p] = static_cast<float>(bias[c] + f[p]);
  }
}

// A conv consuming layout `lay` (input shape `in`, batch 1, full width)
// keeps the weight columns of the stored channels and folds the constant
// ones: each tap of w[r,ci] that lands inside the input at output
// position p adds c_ci·w to (r, p); taps in the zero padding add nothing.
void take_input(ConvOp& op, const Layout& lay, const Shape& in) {
  if (lay.is_full()) return;
  const ConvGeometry g{op.in_c, in[2], in[3], op.kernel, op.kernel, op.stride, op.pad};
  const int64_t kk = op.kernel * op.kernel, rows = op.dense_w.size(0);
  const int64_t oh = g.out_h(), ow = g.out_w(), stored = lay.stored();
  Tensor w({rows, stored * kk});
  std::vector<double> folded(static_cast<size_t>(rows * oh * ow), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    double* acc = folded.data() + r * oh * ow;
    for (int64_t ci = 0; ci < op.in_c; ++ci) {
      const float* wc = op.dense_w.data() + r * g.col_rows() + ci * kk;
      const int32_t s = lay.slot[static_cast<size_t>(ci)];
      if (s >= 0) {
        std::copy(wc, wc + kk, w.data() + (r * stored + s) * kk);
        continue;
      }
      const double v = lay.value[static_cast<size_t>(ci)];
      if (v == 0.0) continue;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double taps = 0.0;
          for (int64_t ky = 0; ky < op.kernel; ++ky) {
            const int64_t iy = oy * op.stride - op.pad + ky;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int64_t kx = 0; kx < op.kernel; ++kx) {
              const int64_t ix = ox * op.stride - op.pad + kx;
              if (ix >= 0 && ix < g.in_w) taps += wc[ky * op.kernel + kx];
            }
          }
          acc[oy * ow + ox] += v * taps;
        }
      }
    }
  }
  op.dense_w = std::move(w);
  op.in_c = stored;
  fold_into_bias(op.row_of, folded, oh * ow, op.bias, &op.plane);
}

// A linear op consuming layout `lay` keeps the weight columns of the
// stored features and folds the constant ones into its bias exactly.
void take_input(LinearOp& op, const Layout& lay) {
  if (lay.is_full()) return;
  const int64_t rows = op.dense_w.size(0), stored = lay.stored();
  Tensor w({rows, stored});
  std::vector<double> folded(static_cast<size_t>(rows), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = op.dense_w.data() + r * op.in;
    for (int64_t f = 0; f < op.in; ++f) {
      const int32_t s = lay.slot[static_cast<size_t>(f)];
      if (s >= 0) {
        w.data()[r * stored + s] = src[f];
      } else {
        folded[static_cast<size_t>(r)] +=
            static_cast<double>(lay.value[static_cast<size_t>(f)]) * src[f];
      }
    }
  }
  op.dense_w = std::move(w);
  op.in = stored;
  fold_into_bias(op.row_of, folded, 1, op.bias, nullptr);
}

// Makes a producer store only its live rows (renumbering its bias by row)
// and returns its output layout: live channels stored in row order, dead
// ones at their fill. A producer with no live row stays full-width.
template <typename OpT>
Layout drop_dead(OpT& op, int64_t& width) {
  const int64_t rows = op.dense_w.size(0);
  if (rows == 0) return Layout::full(width);
  Layout out{op.row_of, op.fill};
  if (!op.bias.empty()) {
    std::vector<float> bias(static_cast<size_t>(rows));
    for (size_t c = 0; c < op.row_of.size(); ++c) {
      if (op.row_of[c] >= 0) bias[static_cast<size_t>(op.row_of[c])] = op.bias[c];
    }
    op.bias = std::move(bias);
  }
  op.row_of.resize(static_cast<size_t>(rows));
  std::iota(op.row_of.begin(), op.row_of.end(), 0);
  op.fill.assign(static_cast<size_t>(rows), 0.0f);
  width = rows;
  return out;
}

// Gives the activations of `ops` their Shrunk layouts (see above). `in`
// is the list's batch-1 input shape, which arrives full-width.
void compact(OpList& ops, const Shape& in) {
  const std::vector<Shape> shapes = shapes_of(ops, in);  // full widths
  Layout lay = Layout::full(in[1]);
  for (size_t i = 0; i < ops.size(); ++i) {
    Op& op = *ops[i];
    const int64_t out_c = shapes[i + 1][1];
    if (auto* conv = dynamic_cast<ConvOp*>(&op)) {
      take_input(*conv, lay, shapes[i]);
      lay = feeds_consumer(ops, i) ? drop_dead(*conv, conv->out_c) : Layout::full(out_c);
    } else if (auto* linear = dynamic_cast<LinearOp*>(&op)) {
      take_input(*linear, lay);
      lay = feeds_consumer(ops, i) ? drop_dead(*linear, linear->out) : Layout::full(out_c);
    } else if (auto* res = dynamic_cast<ResidualOp*>(&op)) {
      compact(res->main_ops, shapes[i]);
      compact(res->shortcut_ops, shapes[i]);
      lay = Layout::full(out_c);
    } else {
      lay = through(op, shapes[i], lay);
    }
  }
}

// The span a forward of this mode runs under, inside "serve.exec".
const char* exec_span(ExecMode mode) {
  switch (mode) {
    case ExecMode::Dense: return "serve.exec.dense";
    case ExecMode::Csr: return "serve.exec.csr";
    case ExecMode::Shrunk: return "serve.exec.shrunk";
  }
  return "serve.exec";
}

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
  SB_PROFILE_SCOPE(exec_span(mode_));
  // A bias plane is compiled for one spatial size, and a GAP head would
  // otherwise accept any: only the compiled sample shape is served.
  const Shape& s = x.shape();
  if (s.size() != sample_shape_.size() + 1 ||
      !std::equal(sample_shape_.begin(), sample_shape_.end(), s.begin() + 1)) {
    throw std::invalid_argument("serve::Executor: input " + shrinkbench::to_string(s) +
                                " is not a batch of the compiled sample shape " +
                                shrinkbench::to_string(sample_shape_));
  }
  const std::vector<Shape> shapes = shapes_of(ops_, x.shape());
  Tensor y(shapes.back());
  run_ops(ops_, shapes, x.data(), y.data());
  return y;
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
  if (mode == ExecMode::Shrunk) {
    Shape in{1};
    in.insert(in.end(), sample_shape.begin(), sample_shape.end());
    compact(exec.ops_, in);
  }
  return exec;
}

}  // namespace shrinkbench::serve
