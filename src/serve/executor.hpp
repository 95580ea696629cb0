// Serving compiler: pruned Sequential -> packed inference executor.
//
// The paper reports *theoretical* speedup (effective FLOPs); this module
// is where that proxy becomes measurable. compile() snapshots a trained,
// pruned model into an immutable executor in one of three modes:
//
//   Dense   the faithful baseline: dense weights, standalone BN, the
//           exact kernels the eval-mode Sequential runs (bit-identical
//           output) — the denominator of measured speedup.
//   Csr     unstructured sparsity: effective weights (data ⊙ mask)
//           compiled to CSR and multiplied with the nn/sparse row
//           kernel; batch norm is folded into the preceding conv so the
//           sparse matmul is the only per-layer matrix work.
//   Shrunk  channel sparsity: BN folded, then all-zero output-channel
//           rows are physically dropped from the GEMM, and dead channels
//           leave the activations too. A dead channel is the constant
//           (0 - mean) * inv_std * gamma + beta — *not* zero — so it
//           cannot simply be deleted; it is folded instead. See
//           "Shrunk layouts" below.
//
// Shrunk layouts. A compile pass gives every activation a layout: the
// channels it stores, plus a compile-time constant for every other one.
//   * A conv or linear op whose output reaches a conv or linear consumer
//     only through pass-through ops (ReLU, max/avg pool, GAP, Flatten,
//     standalone BN) stores only its live rows and writes no fill.
//   * The pass-through ops map the constants at compile time (ReLU
//     clamps, pooling keeps them, BN applies its affine map) and a
//     standalone BN keeps only the stored channels' parameters.
//   * The consumer multiplies only the weight columns of the stored
//     channels. A linear consumer folds the constant inputs into its
//     bias exactly (Σ W·c). A conv folds them into a bias plane, one
//     value per (live output row, output position), c·Σ(in-bounds taps
//     of w): zero padding makes a constant input non-constant at the
//     borders. With pad 0, or when every constant is 0, the plane is a
//     scalar bias. A plane is sized to the compiled sample shape, which
//     is why forward() accepts no other.
//   * The executor's output, a residual block's input and both its
//     branch outputs stay full-width (dead channels written as their
//     fill), and so does a producer with no live rows: residual adds see
//     whole tensors and no tensor has zero channels.
// The only runtime cost it adds is the plane add in a conv's write-back.
// Dense and Csr never run the pass.
//
// One conv kernel serves all three modes and the training layer:
// conv_grid (nn/conv_grid.hpp), the fused (sample × out-channel-tile)
// grid Conv2d::forward also runs. Its tiles stage im2col for blocks of
// samples sized to a fixed column budget, and ConvOp multiplies each block
// with the tile's weight rows (gemm for Dense/Shrunk, the serial CSR row
// kernel for Csr) while it is cache-hot. A Dense linear op likewise calls
// Linear::forward's kernel, linear_forward. Dense is therefore
// bit-identical to the eval forward by construction, and tiling never
// splits a per-element reduction, so every mode is bit-identical across
// SB_THREADS.
//
// Fused epilogue. Each conv, linear and BN op finishes in one write-back
// pass: bias (or bias plane), dead-channel fill and — when compile()
// folded the ReLU that follows it into the op — the clamp. Such a ReLU never runs as an op of
// its own. A dead channel's folded fill becomes max(fill, 0), which is
// exact: its pre-activation is that constant everywhere.
//
// Activation storage. Ops write into caller-provided buffers (Op::run)
// and never into their input. forward() draws every intermediate from the
// calling thread's grow-only workspace arena: two ping-pong buffers per op
// sequence, plus a residual block's own branch buffers while its input
// stays live in the caller's. A warm forward therefore allocates only the
// returned output tensor, and no buffer an op fully overwrites is
// zero-filled first.
//
// Executors hold copies of all weights: the source model can keep
// training or be destroyed. forward() is eval-only, write-free and
// thread-safe (all storage is per thread), so one executor is shared by
// all server workers. With SB_PROF on, each forward runs under a
// "serve.exec" span holding a "serve.exec.<mode>" span, and each op runs
// under a "serve.op.<kind>" span nested in that
// ("serve.exec/serve.exec.shrunk/serve.op.conv").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace shrinkbench::serve {

enum class ExecMode { Dense, Csr, Shrunk };

std::string to_string(ExecMode mode);
ExecMode exec_mode_from_name(const std::string& name);

/// One compiled operation. Implementations live in executor.cpp.
class Op {
 public:
  virtual ~Op() = default;
  /// Static kind name, also the op's profiler span ("serve.op.conv").
  virtual const char* kind() const = 0;
  /// Output shape for an input of shape `in`; throws
  /// std::invalid_argument when the op cannot take that input.
  virtual Shape out_shape(const Shape& in) const = 0;
  /// Writes the output for `x` (shape `in`) into `y`, which holds
  /// numel(out_shape(in)) floats of any content and never aliases `x`.
  /// Must not mutate any state (thread-safety contract).
  virtual void run(const float* x, const Shape& in, float* y) const = 0;
};

class Executor {
 public:
  /// x: [N, ...sample_shape]; any other shape throws
  /// std::invalid_argument. Thread-safe; intermediates and scratch come
  /// from the calling thread's workspace arena.
  Tensor forward(const Tensor& x) const;

  ExecMode mode() const { return mode_; }
  const Shape& sample_shape() const { return sample_shape_; }
  size_t op_count() const { return ops_.size(); }
  /// Top-level op i in execution order (residual blocks are one op).
  const Op& op(size_t i) const { return *ops_[i]; }

  /// Per-sample multiply-adds of the dense / pruned model, captured at
  /// compile time — the paper's theoretical-speedup inputs.
  int64_t flops_dense() const { return flops_dense_; }
  int64_t flops_effective() const { return flops_effective_; }
  double theoretical_speedup() const {
    return flops_effective_ > 0 ? static_cast<double>(flops_dense_) / flops_effective_ : 1.0;
  }

 private:
  friend Executor compile(Sequential& model, const Shape& sample_shape, ExecMode mode);

  ExecMode mode_ = ExecMode::Dense;
  Shape sample_shape_;
  int64_t flops_dense_ = 0;
  int64_t flops_effective_ = 0;
  std::vector<std::unique_ptr<Op>> ops_;
};

/// Compiles the model for the given per-sample input shape. Csr/Shrunk
/// use effective weights (data ⊙ mask) and fold eval-mode batch norm
/// into the preceding conv/linear; every mode folds a ReLU into the
/// conv, linear or BN op it follows; Shrunk then drops dead channels
/// from the activations (see "Shrunk layouts"); Dense otherwise replays
/// the model verbatim. Throws std::invalid_argument on layer types the compiler
/// doesn't know.
Executor compile(Sequential& model, const Shape& sample_shape, ExecMode mode);

}  // namespace shrinkbench::serve
