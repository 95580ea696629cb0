#include "tensor/ops.hpp"

#include "tensor/threadpool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace shrinkbench::ops {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + to_string(a.shape()) +
                                " vs " + to_string(b.shape()));
  }
}

// Map-style ops (disjoint per-element writes, no cross-index reduction)
// fan out over the pool; each element is computed by exactly one chunk,
// so results are bit-identical for every thread count. Reductions (sum,
// min/max, ...) stay sequential — splitting them would reorder the
// accumulation. The grain keeps small tensors on the calling thread.
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a;
  float* o = out.data();
  const float* bp = b.data();
  parallel_for(0, out.numel(), kMinElemsPerChunk, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) o[i] -= bp[i];
  });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a;
  mul_inplace(out, b);
  return out;
}

void axpy(Tensor& a, float alpha, const Tensor& b) {
  check_same_shape(a, b, "axpy");
  float* ap = a.data();
  const float* bp = b.data();
  parallel_for(0, a.numel(), kMinElemsPerChunk, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) ap[i] += alpha * bp[i];
  });
}

void mul_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul_inplace");
  float* ap = a.data();
  const float* bp = b.data();
  parallel_for(0, a.numel(), kMinElemsPerChunk, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) ap[i] *= bp[i];
  });
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* ap = a.data();
  const float* bp = b.data();
  parallel_for(0, a.numel(), kMinElemsPerChunk, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) ap[i] += bp[i];
  });
}

void scale_inplace(Tensor& a, float alpha) {
  float* ap = a.data();
  parallel_for(0, a.numel(), kMinElemsPerChunk, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) ap[i] *= alpha;
  });
}

Tensor scale(const Tensor& a, float alpha) {
  Tensor out = a;
  scale_inplace(out, alpha);
  return out;
}

Tensor abs(const Tensor& a) {
  return map(a, [](float x) { return std::fabs(x); });
}

Tensor square(const Tensor& a) {
  return map(a, [](float x) { return x * x; });
}

Tensor map(const Tensor& a, const std::function<float(float)>& f) {
  Tensor out = a;
  for (float& x : out.flat()) x = f(x);
  return out;
}

float sum(const Tensor& a) {
  // Kahan summation: experiments accumulate over long vectors and we want
  // seed-level reproducibility to not be polluted by accumulation error.
  double s = 0.0;
  for (float x : a.flat()) s += static_cast<double>(x);
  return static_cast<float>(s);
}

float mean(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float min(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("min of empty tensor");
  return *std::min_element(a.flat().begin(), a.flat().end());
}

float max(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max of empty tensor");
  return *std::max_element(a.flat().begin(), a.flat().end());
}

float sum_sq(const Tensor& a) {
  double s = 0.0;
  for (float x : a.flat()) s += static_cast<double>(x) * static_cast<double>(x);
  return static_cast<float>(s);
}

int64_t count_nonzero(const Tensor& a, float tol) {
  int64_t n = 0;
  for (float x : a.flat()) {
    if (std::fabs(x) > tol) ++n;
  }
  return n;
}

int64_t argmax(std::span<const float> values) {
  if (values.empty()) throw std::invalid_argument("argmax of empty span");
  return std::distance(values.begin(), std::max_element(values.begin(), values.end()));
}

std::vector<int64_t> topk_indices(std::span<const float> values, int64_t k) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (k < 0 || k > n) throw std::invalid_argument("topk_indices: k out of range");
  std::vector<int64_t> idx(static_cast<size_t>(n));
  std::iota(idx.begin(), idx.end(), int64_t{0});
  auto greater_by_value = [&](int64_t a, int64_t b) {
    if (values[static_cast<size_t>(a)] != values[static_cast<size_t>(b)]) {
      return values[static_cast<size_t>(a)] > values[static_cast<size_t>(b)];
    }
    return a < b;  // deterministic tie-break
  };
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(), greater_by_value);
  idx.resize(static_cast<size_t>(k));
  return idx;
}

float kth_smallest(std::vector<float> values, int64_t k) {
  if (values.empty() || k < 0 || k >= static_cast<int64_t>(values.size())) {
    throw std::invalid_argument("kth_smallest: k out of range");
  }
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[static_cast<size_t>(k)];
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  float m = 0.0f;
  const float* ap = a.data();
  const float* bp = b.data();
  for (int64_t i = 0, n = a.numel(); i < n; ++i) m = std::max(m, std::fabs(ap[i] - bp[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!a.same_shape(b)) return false;
  const float* ap = a.data();
  const float* bp = b.data();
  for (int64_t i = 0, n = a.numel(); i < n; ++i) {
    const float tol = atol + rtol * std::fabs(bp[i]);
    if (std::fabs(ap[i] - bp[i]) > tol) return false;
  }
  return true;
}

}  // namespace shrinkbench::ops
