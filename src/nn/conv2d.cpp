#include "nn/conv2d.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/conv_grid.hpp"
#include "obs/profile.hpp"
#include "tensor/gemm.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

namespace {

// Gathers NCHW activations [n, c, oh*ow] into channel-major [c, n*oh*ow],
// so a whole minibatch becomes one GEMM operand.
void gather_channel_major(const float* nchw, int64_t n, int64_t c, int64_t spatial, float* cm) {
  parallel_for(0, n, grain_for(c * spatial), [&](int64_t n0, int64_t n1) {
    for (int64_t i = n0; i < n1; ++i) {
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* src = nchw + (i * c + ch) * spatial;
        std::copy(src, src + spatial, cm + ch * (n * spatial) + i * spatial);
      }
    }
  });
}

}  // namespace

Conv2d::Conv2d(std::string name, int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride,
               int64_t pad, bool bias)
    : Layer(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_(this->name() + ".weight", {out_c, in_c, kernel, kernel}, /*prunable=*/true) {
  if (has_bias_) bias_ = Parameter(this->name() + ".bias", {out_c}, /*prunable=*/false);
}

ConvGeometry Conv2d::geometry(int64_t h, int64_t w) const {
  return ConvGeometry{in_c_, h, w, kernel_, kernel_, stride_, pad_};
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  SB_PROFILE_SCOPE("conv2d.fwd");
  if (obs::profiling_enabled()) obs::count("conv2d.fwd.calls");
  if (x.dim() != 4 || x.size(1) != in_c_) {
    throw std::invalid_argument(name() + ": expected [N, " + std::to_string(in_c_) +
                                ", H, W], got " + to_string(x.shape()));
  }
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const ConvGeometry g = geometry(h, w);
  const int64_t oh = g.out_h(), ow = g.out_w();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(name() + ": input " + to_string(x.shape()) + " too small");
  }
  if (train) cached_input_ = x;

  // The shared fused grid (nn/conv_grid.hpp), the same loop a Dense
  // serve::ConvOp runs: each channel tile multiplies its weight rows with
  // the staged sample block and adds the bias on the way into NCHW.
  const int64_t spatial = oh * ow;
  const int64_t col_rows = g.col_rows();
  const float* w_data = weight_.data.data();
  const float* bias = has_bias_ ? bias_.data.data() : nullptr;
  Tensor y({n, out_c_, oh, ow});
  float* y_data = y.data();
  conv_grid(g, n, out_c_, out_c_ * col_rows, x.data(),
            [&](Grid2d::Range cr, Grid2d::Range b, const float* cols, int64_t ld,
                Workspace& ws) {
              Workspace::Scope out_scope;
              float* out_cm = ws.floats(static_cast<size_t>((cr.hi - cr.lo) * ld));
              gemm(false, false, cr.hi - cr.lo, ld, col_rows, 1.0f, w_data + cr.lo * col_rows,
                   col_rows, cols, ld, 0.0f, out_cm, ld);
              for (int64_t c = cr.lo; c < cr.hi; ++c) {
                for (int64_t i = b.lo; i < b.hi; ++i) {
                  write_back(out_cm + (c - cr.lo) * ld + (i - b.lo) * spatial, spatial,
                             bias == nullptr ? nullptr : bias + c, /*relu=*/false,
                             y_data + (i * out_c_ + c) * spatial);
                }
              }
            });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  SB_PROFILE_SCOPE("conv2d.bwd");
  if (obs::profiling_enabled()) obs::count("conv2d.bwd.calls");
  if (cached_input_.empty()) throw std::logic_error(name() + ": backward before forward");
  const Tensor& x = cached_input_;
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const ConvGeometry g = geometry(h, w);
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t image_numel = in_c_ * h * w;
  const int64_t spatial = oh * ow;
  const int64_t ld = n * g.col_cols();

  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  // Recompute the batched column matrix rather than keep forward's: the
  // forward stages only cache-sized sample blocks, never the whole batch.
  float* cols = ws.floats(static_cast<size_t>(g.col_rows() * ld));
  parallel_for(0, n, grain_for(g.col_rows() * g.col_cols()), [&](int64_t n0, int64_t n1) {
    for (int64_t i = n0; i < n1; ++i) {
      im2col_ld(g, x.data() + i * image_numel, cols + i * g.col_cols(), ld);
    }
  });
  float* dy_cm = ws.floats(static_cast<size_t>(out_c_ * ld));
  gather_channel_major(grad_out.data(), n, out_c_, spatial, dy_cm);

  // dW += dY [out_c, n*ohw] * cols^T [n*ohw, cK2]. Every dW element
  // reduces over the full n*ohw axis — the k axis spans all samples —
  // so this product cannot join the sample-tiled grid below without
  // splitting a reduction; it stays the monolithic block-grid GEMM.
  gemm(false, /*trans_b=*/true, out_c_, g.col_rows(), ld, 1.0f, dy_cm, ld, cols, ld, 1.0f,
       weight_.grad.data(), g.col_rows());

  // dX: dcols = Wᵀ·dY and its col2im scatter fused over a (sample ×
  // in-channel-tile) grid. Each tile computes only its own rows and
  // sample columns of dcols into the thread-local arena and scatters
  // them while cache-hot, instead of materialising the full [col_rows,
  // n*ohw] matrix and re-walking it. The out_c reduction stays whole
  // inside every tile and col2im's per-(sample, channel) accumulation
  // order is untouched, so dx is bit-identical to the monolithic product
  // at every thread count.
  Tensor dx(x.shape());
  const int64_t kk = kernel_ * kernel_;
  const int64_t plane = h * w;
  const Grid2d grid(n, in_c_, 1, 1, kk * spatial * out_c_, ThreadPool::instance().threads());
  parallel_for(0, grid.tiles(), 1, [&](int64_t t_lo, int64_t t_hi) {
    Workspace& tws = Workspace::tls();
    for (int64_t t = t_lo; t < t_hi; ++t) {
      const Grid2d::Range s = grid.range0(grid.tile0(t));
      const Grid2d::Range cr = grid.range1(grid.tile1(t));
      const int64_t tile_ld = (s.hi - s.lo) * spatial;
      const int64_t rows = (cr.hi - cr.lo) * kk;
      Workspace::Scope tile_scope;
      float* dcols = tws.floats(static_cast<size_t>(rows * tile_ld));
      // op(A) = Wᵀ is [col_rows, out_c] with op(A)[r, p] = W[p*lda + r]:
      // its row range [cr.lo*kk, cr.hi*kk) is the pointer offset
      // weight + cr.lo*kk at the same lda.
      gemm(/*trans_a=*/true, false, rows, tile_ld, out_c_, 1.0f,
           weight_.data.data() + cr.lo * kk, g.col_rows(), dy_cm + s.lo * spatial, ld, 0.0f,
           dcols, tile_ld);
      for (int64_t i = s.lo; i < s.hi; ++i) {
        col2im_channels_ld(g, dcols + (i - s.lo) * spatial, tile_ld,
                           dx.data() + i * image_numel + cr.lo * plane, cr.hi - cr.lo);
      }
    }
  });
  if (has_bias_) {
    float* bg = bias_.grad.data();
    const float* gp = grad_out.data();
    // Channel-outer so each bg[c] is owned by one chunk and accumulates
    // its per-sample sums in ascending-i order — the same order as the
    // old sample-outer loop, hence bit-identical for any thread count.
    parallel_for(0, out_c_, grain_for(n * spatial), [&](int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        for (int64_t i = 0; i < n; ++i) {
          const float* src = gp + (i * out_c_ + c) * spatial;
          double s = 0.0;
          for (int64_t sp = 0; sp < spatial; ++sp) s += src[sp];
          bg[c] += static_cast<float>(s);
        }
      }
    });
  }
  return dx;
}

void Conv2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

Shape Conv2d::output_sample_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_c_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  const ConvGeometry g = geometry(in[1], in[2]);
  return {out_c_, g.out_h(), g.out_w()};
}

int64_t Conv2d::flops(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_c_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  const ConvGeometry g = geometry(in[1], in[2]);
  // One multiply-add per weight per output spatial position.
  return g.out_h() * g.out_w() * weight_.numel();
}

int64_t Conv2d::effective_flops(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_c_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  const ConvGeometry g = geometry(in[1], in[2]);
  return g.out_h() * g.out_w() * ops::count_nonzero(weight_.mask);
}

}  // namespace shrinkbench
