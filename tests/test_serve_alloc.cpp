// Heap-allocation audit of the serving executor's forward pass.
//
// This binary replaces the global operator new so every heap allocation
// in the process is seen. A warm batch-64 forward of each executor mode
// may allocate its returned output tensor and small bookkeeping (shape
// vectors, pool dispatch), but no activation-sized buffer: every
// intermediate comes from the calling thread's workspace arena. Any
// allocation of 64 KiB or more during the measured forwards fails.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/allocation.hpp"
#include "core/pruner.hpp"
#include "core/scoring.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"
#include "serve/executor.hpp"
#include "tensor/rng.hpp"

namespace {

constexpr size_t kLargeBytes = size_t{64} << 10;

std::atomic<bool> g_watching{false};
std::atomic<int64_t> g_large{0};
std::atomic<size_t> g_largest{0};

void* counted_alloc(size_t bytes, size_t align) {
  if (g_watching.load(std::memory_order_relaxed) && bytes >= kLargeBytes) {
    g_large.fetch_add(1, std::memory_order_relaxed);
    size_t prev = g_largest.load(std::memory_order_relaxed);
    while (bytes > prev && !g_largest.compare_exchange_weak(prev, bytes)) {
    }
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes == 0 ? 1 : bytes);
  } else {
    p = std::aligned_alloc(align, (bytes + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new[](size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new(size_t bytes, std::align_val_t al) {
  return counted_alloc(bytes, static_cast<size_t>(al));
}
void* operator new[](size_t bytes, std::align_val_t al) {
  return counted_alloc(bytes, static_cast<size_t>(al));
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// a sanitizer runtime's own operator new must never be paired with the
// std::free below.
void* operator new(size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(bytes, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t bytes, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}
void* operator new(size_t bytes, std::align_val_t al, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(bytes, static_cast<size_t>(al));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t bytes, std::align_val_t al, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, al, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace shrinkbench {
namespace {

using serve::ExecMode;

ModelPtr pruned_vgg(Structure structure, double keep) {
  const Shape sample{3, 32, 32};
  Rng rng(17);
  ModelPtr model = make_model("cifar-vgg", sample, /*num_classes=*/10, /*base_width=*/8);
  init_model(*model, rng);
  Tensor x({4, 3, 32, 32});
  rng.fill_normal(x, 0, 1);
  model->forward(x, /*train=*/true);  // populates BN running stats
  PruneOptions opts;
  std::vector<ScoredParam> scored;
  for (Parameter* p : prunable_params(*model, opts)) {
    scored.push_back({p, score_parameter(ScoreKind::Magnitude, *p, {}, rng)});
  }
  allocate_masks(scored, AllocationScope::Global, structure, keep);
  apply_masks(*model);
  return model;
}

TEST(ServeAlloc, WarmBatch64ForwardMakesNoLargeAllocation) {
  ModelPtr unstructured = pruned_vgg(Structure::Unstructured, 0.1);
  ModelPtr channel = pruned_vgg(Structure::Channel, 0.25);
  Rng rng(3);
  Tensor x({64, 3, 32, 32});
  rng.fill_normal(x, 0, 1);
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    Sequential& model = mode == ExecMode::Shrunk ? *channel : *unstructured;
    const serve::Executor exec = serve::compile(model, {3, 32, 32}, mode);
    for (int i = 0; i < 2; ++i) exec.forward(x);  // warm: arenas and pool threads
    g_large = 0;
    g_largest = 0;
    g_watching = true;
    for (int i = 0; i < 3; ++i) exec.forward(x);
    g_watching = false;
    EXPECT_EQ(g_large.load(), 0) << serve::to_string(mode) << " made " << g_large.load()
                                 << " allocations of >= 64 KiB (largest " << g_largest.load()
                                 << " bytes) in warm forwards";
  }
}

}  // namespace
}  // namespace shrinkbench
