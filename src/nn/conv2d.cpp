#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/profile.hpp"
#include "tensor/gemm.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

namespace {

// SB_CONV_CACHE_COLS=1 keeps the forward column matrix alive for the
// backward pass instead of recomputing im2col — a speed-vs-memory toggle
// (the cache costs col_rows * n * col_cols floats per conv layer).
bool cache_cols_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("SB_CONV_CACHE_COLS");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }();
  return enabled;
}

// Gathers NCHW activations [n, c, oh*ow] into channel-major [c, n*oh*ow]
// (and scatters back), so a whole minibatch becomes one GEMM operand.
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

// The scatter direction fuses the per-channel bias add (bias == nullptr
// for bias-free layers), saving a second full pass over the output.
void scatter_channel_major(const float* cm, int64_t n, int64_t c, int64_t spatial, float* nchw,
                           const float* bias) {
  parallel_for(0, n, grain_for(c * spatial), [&](int64_t n0, int64_t n1) {
    for (int64_t i = n0; i < n1; ++i) {
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* src = cm + ch * (n * spatial) + i * spatial;
        float* dst = nchw + (i * c + ch) * spatial;
        if (bias == nullptr) {
          std::copy(src, src + spatial, dst);
        } else {
          const float b = bias[ch];
          for (int64_t s = 0; s < spatial; ++s) dst[s] = src[s] + b;
        }
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

  const int64_t ld = n * g.col_cols();
  const int64_t image_numel = in_c_ * h * w;
  const int64_t spatial = oh * ow;
  const int64_t col_rows = g.col_rows();
  const float* bias = has_bias_ ? bias_.data.data() : nullptr;
  Tensor y({n, out_c_, oh, ow});

  const bool keep_cols = train && cache_cols_enabled();
  if (keep_cols) {
    // SB_CONV_CACHE_COLS=1 training forward: backward reuses the full
    // batched column matrix, so the lowering stays monolithic — a fused
    // tile would stage its columns into the thread-local arena and
    // discard them. Member storage (grow-only) survives until backward.
    Workspace::Scope scope;
    Workspace& ws = Workspace::tls();
    cached_cols_.resize(static_cast<size_t>(col_rows * ld));
    float* cols = cached_cols_.data();
    cached_cols_valid_ = true;
    parallel_for(0, n, grain_for(col_rows * spatial), [&](int64_t n0, int64_t n1) {
      for (int64_t i = n0; i < n1; ++i) {
        im2col_ld(g, x.data() + i * image_numel, cols + i * spatial, ld);
      }
    });
    float* out_cm = ws.floats(static_cast<size_t>(out_c_ * ld));
    gemm(false, false, out_c_, ld, col_rows, 1.0f, weight_.data.data(), col_rows, cols, ld, 0.0f,
         out_cm, ld);
    scatter_channel_major(out_cm, n, out_c_, spatial, y.data(), bias);
    return y;
  }
  // Only a training forward may touch the validity flag: eval-mode
  // forward must stay write-free so concurrent evaluate() batches can
  // share one model, and the (cached_input_, cached_cols_) pair from
  // the last training forward stays mutually consistent for backward.
  if (train) cached_cols_valid_ = false;

  // Fused (sample × out-channel-tile) grid. Each tile stages im2col for
  // its samples into the thread-local arena and immediately runs its
  // weight rows' sub-GEMM plus the bias scatter while the columns are
  // cache-hot. The channel axis splits only when samples alone cannot
  // fill the pool (the batch-1 serving case the old per-sample split
  // starved). Bit-identity: tile outputs are disjoint y regions, the k
  // reduction stays whole inside every tile, and the block kernel
  // accumulates k in the same ascending order for any (m, n) subrange —
  // so y matches the monolithic GEMM bit for bit at every thread count.
  // A conv too small to pay for a pool handoff is one tile, run inline.
  const Grid2d grid(n, out_c_, 1, kMinOcPerTile, col_rows * spatial,
                    ThreadPool::instance().threads());
  parallel_for(0, grid.tiles(), 1, [&](int64_t t_lo, int64_t t_hi) {
    Workspace& ws = Workspace::tls();
    int64_t t = t_lo;
    while (t < t_hi) {
      // Tile ids are channel-fastest, so consecutive tiles of one sample
      // range arrive back to back: stage that range's columns once and
      // reuse them for every channel tile this chunk owns in the row.
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
        Workspace::Scope out_scope;
        float* out_cm = ws.floats(static_cast<size_t>((cr.hi - cr.lo) * tile_ld));
        gemm(false, false, cr.hi - cr.lo, tile_ld, col_rows, 1.0f,
             weight_.data.data() + cr.lo * col_rows, col_rows, cols, tile_ld, 0.0f, out_cm,
             tile_ld);
        for (int64_t c = cr.lo; c < cr.hi; ++c) {
          const float* src_c = out_cm + (c - cr.lo) * tile_ld;
          for (int64_t i = s.lo; i < s.hi; ++i) {
            const float* src = src_c + (i - s.lo) * spatial;
            float* dst = y.data() + (i * out_c_ + c) * spatial;
            if (bias == nullptr) {
              std::copy(src, src + spatial, dst);
            } else {
              const float b = bias[c];
              for (int64_t sp = 0; sp < spatial; ++sp) dst[sp] = src[sp] + b;
            }
          }
        }
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
  const float* cols;
  if (cached_cols_valid_) {
    // SB_CONV_CACHE_COLS=1: reuse the forward column matrix.
    if (obs::profiling_enabled()) obs::count("conv2d.cols_cache.hits");
    cols = cached_cols_.data();
  } else {
    // Recompute the batched column matrix (cheaper than caching it in
    // memory-constrained runs; see SB_CONV_CACHE_COLS).
    float* scratch = ws.floats(static_cast<size_t>(g.col_rows() * ld));
    parallel_for(0, n, grain_for(g.col_rows() * g.col_cols()), [&](int64_t n0, int64_t n1) {
      for (int64_t i = n0; i < n1; ++i) {
        im2col_ld(g, x.data() + i * image_numel, scratch + i * g.col_cols(), ld);
      }
    });
    cols = scratch;
  }
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
