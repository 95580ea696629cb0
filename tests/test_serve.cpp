// Serving engine tests: compiler parity against the eval-mode model,
// ReLU folding (no standalone ReLU after a conv, BN or linear op; exact
// clamp of a dead channel's negative fill), the Shrunk layout rules (dead
// channels dropped from activations and folded into their consumer's
// bias or bias plane; no dead channel lowered), per-mode profiler spans,
// sample-shape checks, dynamic-batcher semantics
// (work-conserving flush, backlog coalescing, max-wait flush, lossless
// drain), parallel CSR matmul determinism, and the executor's activation
// storage: steady-state zero arena growth and a bounded high-water mark
// at the benchmark batch of 64.
//
// Registered in CMake under SB_THREADS={1,2,4} as well as the default, so
// every parity assertion here doubles as a determinism check: compiled
// executors must produce the same bits at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/allocation.hpp"
#include "core/pruner.hpp"
#include "core/scoring.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sparse.hpp"
#include "obs/io.hpp"
#include "obs/profile.hpp"
#include "serve/executor.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {
namespace {

using serve::ExecMode;
using serve::InferenceServer;
using serve::ServerOptions;
using serve::ServerStats;

// Builds a trained-looking pruned zoo model: Kaiming weights, off-default
// biases and BN affine params (so folding mistakes can't hide behind
// gamma=1/beta=0), BN running stats populated by train-mode forwards, and
// global magnitude masks applied at the given structure/keep fraction.
ModelPtr pruned_zoo_model(const std::string& arch, const Shape& sample, Structure structure,
                          double keep) {
  Rng rng(17);
  ModelPtr model = make_model(arch, sample, /*num_classes=*/10, /*base_width=*/8);
  init_model(*model, rng);
  for (Parameter* p : parameters_of(*model)) {
    if (!p->prunable) rng.fill_normal(p->data, 0.2f, 0.6f);
  }
  for (int i = 0; i < 2; ++i) {
    Shape in{4};
    in.insert(in.end(), sample.begin(), sample.end());
    Tensor x(in);
    rng.fill_normal(x, 0, 1);
    model->forward(x, /*train=*/true);
  }
  PruneOptions opts;
  std::vector<ScoredParam> scored;
  for (Parameter* p : prunable_params(*model, opts)) {
    scored.push_back({p, score_parameter(ScoreKind::Magnitude, *p, {}, rng)});
  }
  allocate_masks(scored, AllocationScope::Global, structure, keep);
  apply_masks(*model);
  return model;
}

// Compares the compiled executor against the eval-mode Sequential at
// batches 1, 7, 32 and the benchmark's 64. rtol/atol == 0 demands bit-identity (Dense
// mode); Csr folds BN into the weights before the matmul, which reorders
// the floating-point work per output element, so it gets a small
// documented tolerance instead. Shrunk has expect_shrunk_parity below.
void expect_parity(Sequential& model, const Shape& sample, ExecMode mode, float rtol,
                   float atol) {
  const serve::Executor exec = serve::compile(model, sample, mode);
  Rng rng(91);
  for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{32}, int64_t{64}}) {
    Shape in{n};
    in.insert(in.end(), sample.begin(), sample.end());
    Tensor x(in);
    rng.fill_normal(x, 0, 1);
    const Tensor ref = model.forward(x, /*train=*/false);
    const Tensor got = exec.forward(x);
    ASSERT_EQ(got.shape(), ref.shape());
    EXPECT_TRUE(ops::allclose(got, ref, rtol, atol))
        << serve::to_string(mode) << " diverged from eval forward at batch " << n;
  }
}

// Differential parity of the Shrunk executor against the eval-mode
// forward. Shrunk folds BN into the conv weights and the dead channels'
// constants (in double) into their consumer's bias or bias plane, which
// reorders the float sums behind each output, so every Shrunk comparison
// uses this one tolerance: |shrunk - eval| <= kFoldTol * (1 + |eval|).
// The graphs below and the zoo models at channel keep 0.25 differ by
// under 1e-6 on an AVX-512 host; a border plane replaced by its interior
// value, or a positive fill left unfolded, differs by 3e-3 or more.
constexpr float kFoldTol = 1e-4f;

// Shrunk vs eval forward at batches 1, 7, 32 and 64, and bit identity of
// the Shrunk output across pool widths 1 and 4.
void expect_shrunk_parity(Sequential& model, const Shape& sample) {
  const serve::Executor exec = serve::compile(model, sample, ExecMode::Shrunk);
  ThreadPool& pool = ThreadPool::instance();
  const int original = pool.threads();
  Rng rng(91);
  for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{32}, int64_t{64}}) {
    Shape in{n};
    in.insert(in.end(), sample.begin(), sample.end());
    Tensor x(in);
    rng.fill_normal(x, 0, 1);
    const Tensor ref = model.forward(x, /*train=*/false);
    pool.set_threads(1);
    const Tensor serial = exec.forward(x);
    pool.set_threads(4);
    const Tensor pooled = exec.forward(x);
    ASSERT_EQ(serial.shape(), ref.shape());
    EXPECT_TRUE(ops::allclose(serial, ref, kFoldTol, kFoldTol))
        << "shrunk diverged from eval forward at batch " << n;
    EXPECT_TRUE(ops::allclose(pooled, serial, 0, 0)) << "threads 1 vs 4 differ at batch " << n;
  }
  pool.set_threads(original);
}

const Shape kCifarSample{3, 32, 32};

TEST(ServeExecutor, DenseBitMatchesVgg) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Unstructured, 0.25);
  expect_parity(*m, kCifarSample, ExecMode::Dense, 0, 0);
}

TEST(ServeExecutor, CsrMatchesVgg) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Unstructured, 0.25);
  expect_parity(*m, kCifarSample, ExecMode::Csr, 1e-3f, 1e-3f);
}

TEST(ServeExecutor, ShrunkMatchesChannelPrunedVgg) {
  for (const double keep : {0.5, 0.25}) {
    SCOPED_TRACE(keep);
    ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Channel, keep);
    expect_shrunk_parity(*m, kCifarSample);
  }
}

TEST(ServeExecutor, DenseBitMatchesResnet20) {
  ModelPtr m = pruned_zoo_model("resnet-20", kCifarSample, Structure::Unstructured, 0.25);
  expect_parity(*m, kCifarSample, ExecMode::Dense, 0, 0);
}

TEST(ServeExecutor, CsrMatchesResnet20) {
  ModelPtr m = pruned_zoo_model("resnet-20", kCifarSample, Structure::Unstructured, 0.25);
  expect_parity(*m, kCifarSample, ExecMode::Csr, 2e-3f, 2e-3f);
}

TEST(ServeExecutor, ShrunkMatchesChannelPrunedResnet20) {
  for (const double keep : {0.5, 0.25}) {
    SCOPED_TRACE(keep);
    ModelPtr m = pruned_zoo_model("resnet-20", kCifarSample, Structure::Channel, keep);
    expect_shrunk_parity(*m, kCifarSample);
  }
}

TEST(ServeExecutor, TheoreticalSpeedupTracksEffectiveFlops) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Unstructured, 0.25);
  const serve::Executor dense = serve::compile(*m, kCifarSample, ExecMode::Dense);
  const serve::Executor csr = serve::compile(*m, kCifarSample, ExecMode::Csr);
  EXPECT_EQ(dense.flops_dense(), csr.flops_dense());
  EXPECT_LT(csr.flops_effective(), csr.flops_dense());
  EXPECT_GT(csr.theoretical_speedup(), 1.0);
  EXPECT_EQ(m->flops(kCifarSample), csr.flops_dense());
  EXPECT_EQ(m->effective_flops(kCifarSample), csr.flops_effective());
}

TEST(ServeExecutor, ForwardRejectsWrongSampleShape) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Unstructured, 0.5);
  const serve::Executor exec = serve::compile(*m, kCifarSample, ExecMode::Dense);
  Tensor bad({2, 3, 16, 16});
  EXPECT_THROW(exec.forward(bad), std::invalid_argument);
}

TEST(ServeExecutor, ForwardRejectsForeignSpatialSizeBehindGapHead) {
  // resnet-20's GAP head would take a 16x16 input without complaint; the
  // executor serves only the sample shape it was compiled for (a Shrunk
  // bias plane is sized to its spatial map).
  ModelPtr m = pruned_zoo_model("resnet-20", kCifarSample, Structure::Channel, 0.25);
  Rng rng(2);
  Tensor bad({2, 3, 16, 16});
  rng.fill_normal(bad, 0, 1);
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    const serve::Executor exec = serve::compile(*m, kCifarSample, mode);
    EXPECT_THROW(exec.forward(bad), std::invalid_argument) << serve::to_string(mode);
  }
}

TEST(ServeExecutor, ProfiledForwardNestsOpSpansUnderItsMode) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Channel, 0.25);
  Tensor x({1, 3, 32, 32});
  Rng rng(4);
  rng.fill_normal(x, 0, 1);
  const bool was_enabled = obs::profiling_enabled();
  obs::set_profiling_enabled(true);
  obs::Profiler::instance().reset();
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    serve::compile(*m, kCifarSample, mode).forward(x);
  }
  const obs::MetricsSnapshot snap = obs::Profiler::instance().snapshot();
  obs::Profiler::instance().reset();
  obs::set_profiling_enabled(was_enabled);
  for (const char* mode : {"dense", "csr", "shrunk"}) {
    const std::string exec = std::string("serve.exec/serve.exec.") + mode;
    EXPECT_EQ(snap.spans.count(exec), 1u) << exec;
    EXPECT_EQ(snap.spans.count(exec + "/serve.op.conv"), 1u) << exec;
    EXPECT_EQ(snap.spans.count(exec + "/serve.op.linear"), 1u) << exec;
  }
}

TEST(ServeExecutor, ModeNamesRoundTrip) {
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    EXPECT_EQ(serve::exec_mode_from_name(serve::to_string(mode)), mode);
  }
  EXPECT_THROW(serve::exec_mode_from_name("bogus"), std::invalid_argument);
}

// ---- fused-grid executors: bit-identical across thread counts ----

TEST(ServeExecutor, ForwardBitIdenticalAcrossThreadCounts) {
  // The conv ops fan out over a fused (sample x out-channel-tile) grid
  // once their work clears its floor (batch 7 here; batch 1 runs
  // inline); the static partition must keep every mode's output
  // bit-identical at any SB_THREADS.
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Channel, 0.5);
  ThreadPool& pool = ThreadPool::instance();
  const int original = pool.threads();
  Rng rng(21);
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    const serve::Executor exec = serve::compile(*m, kCifarSample, mode);
    for (const int64_t n : {int64_t{1}, int64_t{7}}) {
      Shape in{n};
      in.insert(in.end(), kCifarSample.begin(), kCifarSample.end());
      Tensor x(in);
      rng.fill_normal(x, 0, 1);
      pool.set_threads(1);
      const Tensor ref = exec.forward(x);
      for (const int threads : {2, 4}) {
        pool.set_threads(threads);
        const Tensor got = exec.forward(x);
        EXPECT_TRUE(ops::allclose(got, ref, 0, 0))
            << serve::to_string(mode) << " batch " << n << " diverged at threads=" << threads;
      }
    }
  }
  pool.set_threads(original);
}

// ---- parallel CSR matmul: bit-identical to serial at any SB_THREADS ----

TEST(ServeKernels, CsrMatmulParallelBitMatchesSerial) {
  Rng rng(5);
  const int64_t rows = 512, cols = 256, n = 64;
  Tensor dense({rows, cols});
  rng.fill_normal(dense, 0, 1);
  for (float& v : dense.flat()) {
    if (rng.bernoulli(0.7)) v = 0.0f;
  }
  const CsrMatrix csr = csr_from_dense(dense.data(), rows, cols);
  Tensor x({cols, n});
  rng.fill_normal(x, 0, 1);
  Tensor serial({rows, n}), threaded({rows, n});
  {
    ThreadPool::SerialGuard guard;  // forces the row loop inline-serial
    csr_matmul(csr, x.data(), n, serial.data());
  }
  csr_matmul(csr, x.data(), n, threaded.data());  // fans out per SB_THREADS
  EXPECT_TRUE(ops::allclose(serial, threaded, 0, 0));
}

// ---- ReLU folding ----

TEST(ServeExecutor, NoStandaloneReluAfterConvBnOrLinear) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Channel, 0.5);
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    const serve::Executor exec = serve::compile(*m, kCifarSample, mode);
    for (size_t i = 1; i < exec.op_count(); ++i) {
      if (std::string(exec.op(i).kind()) != "serve.op.relu") continue;
      const std::string prev = exec.op(i - 1).kind();
      EXPECT_TRUE(prev != "serve.op.conv" && prev != "serve.op.bn" && prev != "serve.op.linear")
          << serve::to_string(mode) << ": op " << i << " is a ReLU left after " << prev;
    }
  }
}

TEST(ServeExecutor, ShrunkDeadChannelNegativeFillClampsToZero) {
  // conv -> BN -> ReLU with output channel 1 pruned whole: its folded
  // fill (0 - mean) * gamma / sqrt(var + eps) + beta is negative, so the
  // folded ReLU must turn it into exact zeros, as the eval forward does.
  Rng rng(13);
  Sequential model("dead");
  auto conv_owned = std::make_unique<Conv2d>("conv", 2, 3, 3, 1, 1, /*bias=*/false);
  auto bn_owned = std::make_unique<BatchNorm2d>("bn", 3);
  Conv2d& conv = *conv_owned;
  BatchNorm2d& bn = *bn_owned;
  model.add(std::move(conv_owned)).add(std::move(bn_owned));
  model.emplace<ReLU>("relu");
  init_model(model, rng);
  for (int64_t j = 0; j < 2 * 3 * 3; ++j) conv.weight().mask.at(1 * 18 + j) = 0.0f;
  conv.weight().apply_mask();
  for (int64_t c = 0; c < 3; ++c) {
    bn.running_mean().at(c) = 0.3f;
    bn.running_var().at(c) = 1.5f;
    bn.gamma().data.at(c) = 0.8f;
    bn.beta().data.at(c) = c == 1 ? -0.5f : 0.1f;
  }
  const serve::Executor exec = serve::compile(model, {2, 5, 5}, ExecMode::Shrunk);
  Tensor x({3, 2, 5, 5});
  rng.fill_normal(x, 0, 1);
  const Tensor ref = model.forward(x, /*train=*/false);
  const Tensor got = exec.forward(x);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(ops::allclose(got, ref, 1e-5f, 1e-5f));
  bool live_positive = false;
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t s = 0; s < 25; ++s) {
      EXPECT_EQ(got.at((i * 3 + 1) * 25 + s), 0.0f) << "dead channel, sample " << i;
      live_positive = live_positive || got.at((i * 3 + 0) * 25 + s) > 0.0f;
    }
  }
  EXPECT_TRUE(live_positive) << "live channels should still pass positive activations";
}

// ---- Shrunk layouts: dead channels leave every activation ----
//
// Hand-built graphs that hit each exactness condition of the layout pass,
// checked with expect_shrunk_parity.

// Activation shapes of a compiled executor for one sample: input, then
// each top-level op's output.
std::vector<Shape> exec_shapes(const serve::Executor& exec, const Shape& sample) {
  Shape s{1};
  s.insert(s.end(), sample.begin(), sample.end());
  std::vector<Shape> shapes{s};
  for (size_t i = 0; i < exec.op_count(); ++i) {
    shapes.push_back(exec.op(i).out_shape(shapes.back()));
  }
  return shapes;
}

template <typename L, typename... Args>
L& add_layer(Sequential& model, Args&&... args) {
  auto owned = std::make_unique<L>(std::forward<Args>(args)...);
  L& layer = *owned;
  model.add(std::move(owned));
  return layer;
}

// Kaiming weights, off-default biases and BN affine parameters, and BN
// running statistics away from 0/1, so no folding mistake hides.
void randomize(Sequential& model, Rng& rng) {
  init_model(model, rng);
  for (Parameter* p : parameters_of(model)) {
    if (!p->prunable) rng.fill_normal(p->data, 0.1f, 0.5f);
  }
  visit_layers(model, [&](Layer& layer) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&layer)) {
      for (int64_t c = 0; c < bn->running_mean().numel(); ++c) {
        bn->running_mean().at(c) = static_cast<float>(rng.uniform(-0.3, 0.3));
        bn->running_var().at(c) = static_cast<float>(rng.uniform(0.5, 1.5));
      }
    }
  });
}

// Prunes whole output channels of a bias-free conv followed by `bn` and
// pins each one's folded fill, (0 - mean) * scale + beta, to the given
// value by zeroing its running mean.
void kill_channels(Conv2d& conv, BatchNorm2d& bn,
                   const std::vector<std::pair<int64_t, float>>& fills) {
  const int64_t row = conv.weight().numel() / conv.out_channels();
  for (const auto& [c, fill] : fills) {
    for (int64_t j = 0; j < row; ++j) conv.weight().mask.at(c * row + j) = 0.0f;
    bn.running_mean().at(c) = 0.0f;
    bn.beta().data.at(c) = fill;
  }
  conv.weight().apply_mask();
}

// Prunes whole output rows of a linear layer; each one's fill is its bias.
void kill_rows(Linear& fc, const std::vector<std::pair<int64_t, float>>& fills) {
  const int64_t in = fc.in_features();
  for (const auto& [r, fill] : fills) {
    for (int64_t j = 0; j < in; ++j) fc.weight().mask.at(r * in + j) = 0.0f;
    fc.bias()->data.at(r) = fill;
  }
  fc.weight().apply_mask();
}

TEST(ServeShrunkLayout, DeadChannelsFoldIntoPaddedConvBorderPlane) {
  // Channel 1 (fill +0.7 after BN) and 3 (fill -0.6, zero after the
  // ReLU) of conv a feed a 3x3 pad-1 conv: the positive constant's
  // contribution is smaller at the border, where taps land in padding.
  Rng rng(31);
  Sequential m("padded");
  auto& a = add_layer<Conv2d>(m, "a", 2, 5, 3, 1, 1, false);
  auto& a_bn = add_layer<BatchNorm2d>(m, "a.bn", 5);
  add_layer<ReLU>(m, "a.relu");
  auto& b = add_layer<Conv2d>(m, "b", 5, 4, 3, 1, 1, false);
  auto& b_bn = add_layer<BatchNorm2d>(m, "b.bn", 4);
  add_layer<ReLU>(m, "b.relu");
  randomize(m, rng);
  kill_channels(a, a_bn, {{1, 0.7f}, {3, -0.6f}});
  kill_channels(b, b_bn, {{2, 0.4f}});
  const Shape sample{2, 7, 5};
  expect_shrunk_parity(m, sample);
  const std::vector<Shape> shapes =
      exec_shapes(serve::compile(m, sample, ExecMode::Shrunk), sample);
  EXPECT_EQ(shapes[1], (Shape{1, 3, 7, 5})) << "conv a should store only its 3 live channels";
  EXPECT_EQ(shapes.back(), (Shape{1, 4, 7, 5})) << "the executor's output stays full-width";
}

TEST(ServeShrunkLayout, StrideTwoAndPointwiseConsumers) {
  Rng rng(32);
  Sequential m("strided");
  auto& a = add_layer<Conv2d>(m, "a", 3, 6, 3, 1, 1, false);
  auto& a_bn = add_layer<BatchNorm2d>(m, "a.bn", 6);
  add_layer<ReLU>(m, "a.relu");
  auto& b = add_layer<Conv2d>(m, "b", 6, 5, 3, 2, 1, false);
  auto& b_bn = add_layer<BatchNorm2d>(m, "b.bn", 5);
  add_layer<ReLU>(m, "b.relu");
  add_layer<Conv2d>(m, "c", 5, 4, 1, 1, 0, false);
  add_layer<BatchNorm2d>(m, "c.bn", 4);
  add_layer<ReLU>(m, "c.relu");
  randomize(m, rng);
  kill_channels(a, a_bn, {{0, 0.5f}, {2, 0.8f}, {5, -0.3f}});
  kill_channels(b, b_bn, {{1, 0.6f}, {4, -0.2f}});
  const Shape sample{3, 9, 7};
  expect_shrunk_parity(m, sample);
  const std::vector<Shape> shapes =
      exec_shapes(serve::compile(m, sample, ExecMode::Shrunk), sample);
  EXPECT_EQ(shapes[1][1], 3);
  EXPECT_EQ(shapes[2][1], 3);
}

TEST(ServeShrunkLayout, AvgPoolStandaloneBnAndGapIntoLinear) {
  // Constants pass an average pool and a standalone BN (+ folded ReLU),
  // which keeps only the stored channels' parameters, then a GAP feeds
  // the linear head, which folds the constant features into its bias.
  Rng rng(33);
  Sequential m("pooled");
  auto& a = add_layer<Conv2d>(m, "a", 3, 6, 3, 1, 1, false);
  auto& a_bn = add_layer<BatchNorm2d>(m, "a.bn", 6);
  add_layer<ReLU>(m, "a.relu");
  add_layer<AvgPool2d>(m, "pool", 2, 2);
  add_layer<BatchNorm2d>(m, "mid.bn", 6);
  add_layer<ReLU>(m, "mid.relu");
  auto& b = add_layer<Conv2d>(m, "b", 6, 5, 3, 1, 1, false);
  auto& b_bn = add_layer<BatchNorm2d>(m, "b.bn", 5);
  add_layer<ReLU>(m, "b.relu");
  add_layer<GlobalAvgPool>(m, "gap");
  add_layer<Linear>(m, "fc", 5, 4);
  randomize(m, rng);
  kill_channels(a, a_bn, {{1, 0.9f}, {3, -0.4f}});
  kill_channels(b, b_bn, {{0, 0.5f}, {2, 0.3f}});
  const Shape sample{3, 8, 8};
  expect_shrunk_parity(m, sample);
  const std::vector<Shape> shapes =
      exec_shapes(serve::compile(m, sample, ExecMode::Shrunk), sample);
  EXPECT_EQ(shapes[1][1], 4);
  EXPECT_EQ(shapes[shapes.size() - 2], (Shape{1, 3})) << "GAP output keeps the 3 live channels";
}

TEST(ServeShrunkLayout, LinearHeadFoldsDeadHiddenUnits) {
  Rng rng(34);
  Sequential m("mlp");
  auto& fc1 = add_layer<Linear>(m, "fc1", 12, 10);
  add_layer<ReLU>(m, "fc1.relu");
  auto& fc2 = add_layer<Linear>(m, "fc2", 10, 6);
  add_layer<ReLU>(m, "fc2.relu");
  add_layer<Linear>(m, "fc3", 6, 3);
  randomize(m, rng);
  kill_rows(fc1, {{2, 0.8f}, {5, 0.4f}, {7, -0.3f}});
  kill_rows(fc2, {{1, 0.5f}, {4, 0.2f}});
  const Shape sample{12};
  expect_shrunk_parity(m, sample);
  const std::vector<Shape> shapes =
      exec_shapes(serve::compile(m, sample, ExecMode::Shrunk), sample);
  EXPECT_EQ(shapes[1], (Shape{1, 7}));
  EXPECT_EQ(shapes[2], (Shape{1, 4}));
  EXPECT_EQ(shapes[3], (Shape{1, 3}));
}

TEST(ServeShrunkLayout, FullyPrunedLayerStaysFullWidth) {
  // Conv b has no live channel: it stays full-width (no tensor has zero
  // channels), writes its fills, and conv c multiplies them as inputs.
  Rng rng(35);
  Sequential m("empty");
  auto& a = add_layer<Conv2d>(m, "a", 3, 4, 3, 1, 1, false);
  auto& a_bn = add_layer<BatchNorm2d>(m, "a.bn", 4);
  add_layer<ReLU>(m, "a.relu");
  auto& b = add_layer<Conv2d>(m, "b", 4, 5, 3, 1, 1, false);
  auto& b_bn = add_layer<BatchNorm2d>(m, "b.bn", 5);
  add_layer<ReLU>(m, "b.relu");
  add_layer<Conv2d>(m, "c", 5, 3, 3, 1, 1, false);
  add_layer<BatchNorm2d>(m, "c.bn", 3);
  randomize(m, rng);
  kill_channels(a, a_bn, {{1, 0.6f}});
  kill_channels(b, b_bn, {{0, 0.5f}, {1, -0.2f}, {2, 0.3f}, {3, 0.1f}, {4, -0.4f}});
  const Shape sample{3, 6, 6};
  expect_shrunk_parity(m, sample);
  const std::vector<Shape> shapes =
      exec_shapes(serve::compile(m, sample, ExecMode::Shrunk), sample);
  EXPECT_EQ(shapes[1][1], 3);
  EXPECT_EQ(shapes[2][1], 5);
}

// Rows of a conv's effective weight with a nonzero entry.
int64_t live_channels(Conv2d& conv) {
  const int64_t rows = conv.out_channels(), row = conv.weight().numel() / rows;
  int64_t live = 0;
  for (int64_t r = 0; r < rows; ++r) {
    bool any = false;
    for (int64_t j = 0; j < row; ++j) {
      any = any || conv.weight().data.at(r * row + j) * conv.weight().mask.at(r * row + j) != 0.0f;
    }
    live += any ? 1 : 0;
  }
  return live;
}

// im2col elements a batch-1 Shrunk forward lowers for `seq` (input
// sample shape `in`, `stored` channels stored): each conv lowers
// stored_in·k²·out_h·out_w, where stored_in is the live channel count of
// the conv before it in the same Sequential. A Sequential starts
// full-width, so does a residual block's output, and so does a conv
// with no live channel. drop_dead = false counts full-width lowering.
int64_t expected_lowered(Sequential& seq, Shape in, int64_t stored, bool drop_dead = true) {
  int64_t total = 0;
  for (Layer* layer : seq.children()) {
    const Shape out = layer->output_sample_shape(in);
    if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
      total += stored * conv->kernel() * conv->kernel() * out[1] * out[2];
      const int64_t live = live_channels(*conv);
      stored = drop_dead && live > 0 ? live : out[0];
    } else if (auto* res = dynamic_cast<ResidualBlock*>(layer)) {
      total += expected_lowered(*res->main(), in, in[0], drop_dead);
      if (res->shortcut() != nullptr) {
        total += expected_lowered(*res->shortcut(), in, in[0], drop_dead);
      }
      stored = out[0];
    }
    in = out;
  }
  return total;
}

TEST(ServeShrunkLayout, NoDeadChannelIsLowered) {
  Tensor x({1, 3, 32, 32});
  Rng rng(6);
  rng.fill_normal(x, 0, 1);
  for (const char* arch : {"cifar-vgg", "resnet-20"}) {
    ModelPtr m = pruned_zoo_model(arch, kCifarSample, Structure::Channel, 0.25);
    const serve::Executor exec = serve::compile(*m, kCifarSample, ExecMode::Shrunk);
    const bool was_enabled = obs::profiling_enabled();
    obs::set_profiling_enabled(true);
    obs::Profiler::instance().reset();
    exec.forward(x);
    const obs::MetricsSnapshot snap = obs::Profiler::instance().snapshot();
    obs::Profiler::instance().reset();
    obs::set_profiling_enabled(was_enabled);
    const int64_t want = expected_lowered(*m, kCifarSample, kCifarSample[0]);
    ASSERT_EQ(snap.counters.count("im2col.elements"), 1u) << arch;
    EXPECT_EQ(snap.counters.at("im2col.elements"), want) << arch;
    EXPECT_LT(want, expected_lowered(*m, kCifarSample, kCifarSample[0], /*drop_dead=*/false))
        << arch << ": the fixture should have dead channels to drop";
  }
}

// ---- executor activation storage: steady state and high-water mark ----

TEST(ServeWorkspace, ExecutorForwardReachesSteadyState) {
  // Batch 64 on one thread, so the calling thread's arena holds all of
  // it: the ping-pong activations (the widest, cifar-vgg's first conv
  // output, is 64 * 8 * 32 * 32 floats = 2 MiB), one staged column
  // block (256 KiB, or one sample's columns when larger: 288 KiB for
  // the 8 -> 8 conv), the output tile and GEMM packing. 8 MiB
  // bounds that with headroom; lowering a whole batch-64 tile at once
  // would need 18.9 MB of columns for the 8 -> 8 conv alone.
  constexpr size_t kHighWaterBound = size_t{8} << 20;
  ModelPtr unstructured =
      pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Unstructured, 0.25);
  ModelPtr channel = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Channel, 0.5);
  ThreadPool& pool = ThreadPool::instance();
  const int original = pool.threads();
  pool.set_threads(1);
  Rng rng(9);
  Tensor x({64, 3, 32, 32});
  rng.fill_normal(x, 0, 1);
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    Sequential& model = mode == ExecMode::Shrunk ? *channel : *unstructured;
    const serve::Executor exec = serve::compile(model, kCifarSample, mode);
    Workspace& ws = Workspace::tls();
    ws.release();
    for (int i = 0; i < 2; ++i) exec.forward(x);
    const int64_t grows = ws.grow_count();
    for (int i = 0; i < 3; ++i) exec.forward(x);
    EXPECT_EQ(ws.grow_count(), grows) << serve::to_string(mode) << " grew the arena after warm-up";
    EXPECT_LT(ws.high_water(), kHighWaterBound)
        << serve::to_string(mode) << " arena high-water " << ws.high_water() << " bytes";
  }
  pool.set_threads(original);
}

// ---- dynamic batcher ----

ModelPtr tiny_model(Rng& rng) {
  auto m = std::make_unique<Sequential>("tiny");
  m->emplace<Linear>("fc", 8, 4);
  init_model(*m, rng);
  return m;
}

Tensor random_sample(Rng& rng) {
  Tensor s({8});
  rng.fill_normal(s, 0, 1);
  return s;
}

// Polls `pred` for up to 5 s; true once it holds.
template <typename Pred>
bool eventually(Pred pred) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

// Clears the fault spec even when an assertion returns early.
struct FaultSpecGuard {
  explicit FaultSpecGuard(const std::string& spec) { obs::set_fault_spec(spec); }
  ~FaultSpecGuard() { obs::set_fault_spec(""); }
};

TEST(ServeBatcher, IdleServerFlushesLoneRequestImmediately) {
  Rng rng(3);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_wait_us = 10'000'000;  // 10 s: a wait-to-fill batcher would sit on it
  InferenceServer server(exec, opts);
  std::future<Tensor> fut = server.submit(random_sample(rng));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(1)), std::future_status::ready)
      << "an idle server held a lone request for the max-wait timer";
  EXPECT_EQ(fut.get().shape(), (Shape{4}));
  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 1);
  EXPECT_EQ(st.batches, 1);
  EXPECT_EQ(st.busy_workers, 0);
}

TEST(ServeBatcher, BacklogBehindBusyWorkerCoalesces) {
  Rng rng(5);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  FaultSpecGuard stall("serve.worker_stall:1");  // parks the first batch for 25 ms
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_wait_us = 10'000'000;
  opts.stall_timeout_ms = 0;  // no watchdog: the parked batch still succeeds
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  futs.push_back(server.submit(random_sample(rng)));
  ASSERT_TRUE(eventually([&] { return server.stats().busy_workers == 1; }))
      << "the first batch never started";
  for (int64_t i = 0; i < opts.max_batch; ++i) futs.push_back(server.submit(random_sample(rng)));
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
    EXPECT_EQ(f.get().shape(), (Shape{4}));
  }
  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 1 + opts.max_batch);
  EXPECT_EQ(st.failed, 0);
  // The head's batch was executing before the rest were submitted, so
  // it held the head alone; two batches for 1 + max_batch requests then
  // means the backlog behind it ran as one full batch of max_batch.
  EXPECT_EQ(st.batches, 2);
}

TEST(ServeBatcher, WorkerHoldsPartialBatchWhilePeerIsBusy) {
  Rng rng(7);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  FaultSpecGuard stall("serve.worker_stall:1");  // parks one worker for 25 ms
  ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 8;
  opts.max_wait_us = 10'000'000;
  opts.stall_timeout_ms = 0;
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  futs.push_back(server.submit(random_sample(rng)));
  ASSERT_TRUE(eventually([&] { return server.stats().busy_workers == 1; }))
      << "the first batch never started";
  // The idle peer takes the first of these and, with a busy peer, holds
  // its partial batch open: the rest join it instead of flushing alone.
  for (int i = 0; i < 3; ++i) futs.push_back(server.submit(random_sample(rng)));
  for (auto& f : futs) {
    // It flushes once the parked peer finishes, long before max_wait_us.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
    EXPECT_EQ(f.get().shape(), (Shape{4}));
  }
  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 4);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.batches, 2);
}

TEST(ServeBatcher, MaxWaitFlushesPartialBatch) {
  Rng rng(4);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 64;       // never reached by 3 requests...
  opts.max_wait_us = 20'000; // ...so only the 20 ms timer can flush them
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(server.submit(random_sample(rng)));
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
        << "partial batch never flushed on max-wait";
    EXPECT_EQ(f.get().shape(), (Shape{4}));
  }
  // Futures are fulfilled before the worker's stats update lands, so
  // quiesce (shutdown joins the workers) before reading counters.
  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 3);
  EXPECT_EQ(st.failed, 0);
}

TEST(ServeBatcher, DrainOnShutdownLosesZeroRequests) {
  Rng rng(6);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 3;
  opts.max_wait_us = 60'000'000;  // 60 s: a lossy drain would visibly hang
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 40; ++i) futs.push_back(server.submit(random_sample(rng)));
  server.shutdown();  // returns only after the queue is fully drained
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().shape(), (Shape{4}));
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, 40);
  EXPECT_EQ(st.completed, 40);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.rejected, 0);

  // Late submissions are rejected, not silently dropped.
  EXPECT_FALSE(server.accepting());
  EXPECT_THROW(server.submit(random_sample(rng)), std::runtime_error);
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST(ServeBatcher, SingleRequestBitMatchesExecutor) {
  Rng rng(8);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;  // server must form exactly the same batch-of-1
  InferenceServer server(exec, opts);
  const Tensor s = random_sample(rng);
  std::future<Tensor> fut = server.submit(s.clone());
  Tensor batch({1, 8});
  std::copy(s.data(), s.data() + 8, batch.data());
  const Tensor y = exec.forward(batch);
  Tensor expect({4});
  std::copy(y.data(), y.data() + 4, expect.data());
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_TRUE(ops::allclose(fut.get(), expect, 0, 0));
}

TEST(ServeBatcher, SubmitRejectsWrongSampleShape) {
  Rng rng(10);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  InferenceServer server(exec, ServerOptions{});
  Tensor bad({4});
  EXPECT_THROW(server.submit(std::move(bad)), std::invalid_argument);
}

TEST(ServeBatcher, OptionsAreValidated) {
  Rng rng(11);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 0;
  EXPECT_THROW(InferenceServer(exec, opts), std::invalid_argument);
}

}  // namespace
}  // namespace shrinkbench
