// The one convolution forward loop, shared by the training layer
// (Conv2d::forward) and the serving executor (serve::ConvOp::run).
//
// conv_grid owns the parallel structure: a fused (sample × out-channel-
// tile) Grid2d whose tiles stage im2col for blocks of samples sized to a
// fixed column budget into the calling thread's workspace arena and hand
// each staged block to the caller's per-channel-tile multiply while it is
// cache-hot. The caller supplies only that multiply plus its write-back
// (dense gemm, CSR rows, live-row packing, bias, folded clamp).
//
// Bit identity: tile outputs are disjoint regions of y, neither tiles nor
// blocks split the k (col_rows) reduction, and the block kernels
// accumulate k in the same ascending order for any (m, n) subrange. So a
// caller's output is the same bit for bit at every thread count, and two
// callers with the same multiply (Conv2d and a Dense ConvOp) agree by
// construction rather than by keeping two loops in lockstep.
#pragma once

#include <algorithm>
#include <cstdint>

#include "tensor/im2col.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

// Floats of im2col columns one conv tile stages at a time (256 KiB): a
// tile lowers as many whole samples as fit, at least one, multiplies
// them, and moves on, so the staged block stays cache-resident for every
// channel tile that reads it. Batch-64 cifar-vgg rounds on a 4-core
// AVX-512 host: 2^15-2^17 within noise of each other, 2^18 about 5%
// slower, 2^20 about 15% slower.
constexpr int64_t kColBudget = int64_t{1} << 16;

// nn::ReLU's exact rule: negatives become +0; -0.0f and NaN pass through.
inline float clamp0(float v) { return v < 0.0f ? 0.0f : v; }

// dst = src (+ *bias) (clamped when relu). Separate loops keep the
// no-bias path from adding 0.0f, which would turn -0.0f into +0.0f and
// break Dense bit identity.
inline void write_back(const float* src, int64_t len, const float* bias, bool relu, float* dst) {
  if (bias == nullptr) {
    if (!relu) {
      std::copy(src, src + len, dst);
    } else {
      for (int64_t k = 0; k < len; ++k) dst[k] = clamp0(src[k]);
    }
    return;
  }
  const float b = *bias;
  if (!relu) {
    for (int64_t k = 0; k < len; ++k) dst[k] = src[k] + b;
  } else {
    for (int64_t k = 0; k < len; ++k) dst[k] = clamp0(src[k] + b);
  }
}

/// Runs the fused conv forward grid over `n` NCHW samples `x` of geometry
/// `g` producing `out_c` channels. `row_madds` is the live multiply-adds
/// one output position costs across all channels (out_c * col_rows for a
/// dense conv, nnz for a CSR one); it sizes the grid. For every channel
/// tile and staged sample block the grid calls
///
///   block(Grid2d::Range cr, Grid2d::Range b, const float* cols,
///         int64_t ld, Workspace& ws)
///
/// where `cols` holds the [col_rows, (b.hi - b.lo) * spatial] columns of
/// samples [b.lo, b.hi) with row stride `ld`, and `block` must write
/// exactly channels [cr.lo, cr.hi) of those samples. `ws` is the calling
/// thread's arena, for the block's own scoped scratch.
template <typename Block>
void conv_grid(const ConvGeometry& g, int64_t n, int64_t out_c, int64_t row_madds,
               const float* x, Block&& block) {
  const int64_t spatial = g.out_h() * g.out_w();
  const int64_t col_rows = g.col_rows();
  const int64_t image_numel = g.in_c * g.in_h * g.in_w;
  const int64_t samples = std::max<int64_t>(1, kColBudget / (col_rows * spatial));
  // Cell work counts live multiply-adds (a shrunk conv does none for dead
  // channels, a CSR conv none for pruned weights) plus the im2col
  // staging, one element per column row and output position, which costs
  // the same at any sparsity. Without it a very sparse conv formed one
  // tile and lowered its whole batch on one thread. The channel axis
  // splits only when samples alone cannot fill the pool (batch-1
  // serving); a conv too small to pay for a pool handoff is one tile,
  // run inline.
  const Grid2d grid(n, out_c, 1, kMinOcPerTile,
                    (row_madds + col_rows) * spatial / std::max<int64_t>(out_c, 1),
                    ThreadPool::instance().threads());
  parallel_for(0, grid.tiles(), 1, [&](int64_t t_lo, int64_t t_hi) {
    Workspace& ws = Workspace::tls();
    int64_t t = t_lo;
    while (t < t_hi) {
      // Tile ids are channel-fastest, so the tiles of one sample range
      // arrive back to back: each staged block serves all of them.
      const int64_t i0 = grid.tile0(t);
      const Grid2d::Range s = grid.range0(i0);
      const int64_t row_end = std::min(t_hi, (i0 + 1) * grid.tiles1());
      for (int64_t b_lo = s.lo; b_lo < s.hi; b_lo += samples) {
        const Grid2d::Range b{b_lo, std::min(s.hi, b_lo + samples)};
        const int64_t ld = (b.hi - b.lo) * spatial;
        Workspace::Scope stage;  // LIFO: reclaimed before the next block
        float* cols = ws.floats(static_cast<size_t>(col_rows * ld));
        for (int64_t i = b.lo; i < b.hi; ++i) {
          im2col_ld(g, x + i * image_numel, cols + (i - b.lo) * spatial, ld);
        }
        for (int64_t tc = t; tc < row_end; ++tc) {
          block(grid.range1(grid.tile1(tc)), b, cols, ld, ws);
        }
      }
      t = row_end;
    }
  });
}

}  // namespace shrinkbench
