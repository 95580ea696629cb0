// Serving engine tests: compiler parity against the eval-mode model,
// ReLU folding (no standalone ReLU after a conv, BN or linear op; exact
// clamp of a dead channel's negative fill), dynamic-batcher semantics
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
#include "nn/sparse.hpp"
#include "obs/io.hpp"
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
// mode); Csr/Shrunk fold BN into the weights before the matmul, which
// reorders the floating-point work per output element, so those modes get
// a small documented tolerance instead.
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
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Channel, 0.5);
  expect_parity(*m, kCifarSample, ExecMode::Shrunk, 1e-3f, 1e-3f);
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
  ModelPtr m = pruned_zoo_model("resnet-20", kCifarSample, Structure::Channel, 0.5);
  expect_parity(*m, kCifarSample, ExecMode::Shrunk, 2e-3f, 2e-3f);
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
