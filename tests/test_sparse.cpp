// Sparse inference tests: CSR construction, sparse matmul correctness,
// and agreement between the CSR executor and the dense eval forward of
// pruned layers.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/sparse.hpp"
#include "serve/executor.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace shrinkbench {
namespace {

TEST(Csr, RoundTripsDense) {
  Rng rng(1);
  Tensor dense({7, 11});
  rng.fill_normal(dense, 0, 1);
  // Zero about half the entries.
  for (float& v : dense.flat()) {
    if (rng.bernoulli(0.5)) v = 0.0f;
  }
  const CsrMatrix csr = csr_from_dense(dense.data(), 7, 11);
  EXPECT_EQ(csr.nnz(), ops::count_nonzero(dense));
  EXPECT_TRUE(ops::allclose(csr_to_dense(csr), dense, 0, 0));
}

TEST(Csr, EmptyAndFullMatrices) {
  Tensor zeros({3, 4});
  const CsrMatrix empty = csr_from_dense(zeros.data(), 3, 4);
  EXPECT_EQ(empty.nnz(), 0);
  EXPECT_DOUBLE_EQ(empty.density(), 0.0);

  Tensor ones = Tensor::ones({3, 4});
  const CsrMatrix full = csr_from_dense(ones.data(), 3, 4);
  EXPECT_EQ(full.nnz(), 12);
  EXPECT_DOUBLE_EQ(full.density(), 1.0);
}

TEST(Csr, RejectsColumnCountBeyondInt32) {
  // col_idx is int32_t; anything wider must throw instead of silently
  // wrapping the indices. rows = 0 so no data is ever dereferenced.
  const int64_t too_wide = int64_t{1} << 32;
  EXPECT_THROW(csr_from_dense(nullptr, 0, too_wide), std::invalid_argument);
}

TEST(Csr, FromParameterAppliesMask) {
  Parameter p("w", {2, 3}, true);
  p.data.fill(5.0f);
  p.mask = Tensor({2, 3}, {1, 0, 1, 0, 0, 1});
  const CsrMatrix csr = csr_from_parameter(p);
  EXPECT_EQ(csr.nnz(), 3);
  const Tensor dense = csr_to_dense(csr);
  EXPECT_EQ(dense(0, 0), 5.0f);
  EXPECT_EQ(dense(0, 1), 0.0f);
  EXPECT_EQ(dense(1, 2), 5.0f);
}

class CsrMatmulSparsity : public ::testing::TestWithParam<double> {};

TEST_P(CsrMatmulSparsity, MatchesDenseGemm) {
  const double sparsity = GetParam();
  Rng rng(17);
  Tensor a({13, 29}), b({29, 9});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  for (float& v : a.flat()) {
    if (rng.uniform() < sparsity) v = 0.0f;
  }
  const CsrMatrix csr = csr_from_dense(a.data(), 13, 29);
  Tensor out({13, 9});
  csr_matmul(csr, b.data(), 9, out.data());
  EXPECT_TRUE(ops::allclose(out, matmul(a, b), 1e-4f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Sparsities, CsrMatmulSparsity,
                         ::testing::Values(0.0, 0.25, 0.5, 0.9, 0.99, 1.0));

TEST(CsrMatmul, RowRangesBitMatchFullProduct) {
  // csr_matmul's fan-out and the executor's CSR conv tiles both run
  // csr_matmul_rows over sub-ranges of rows and columns; any split must
  // give the full product's bits.
  Rng rng(11);
  Tensor a({9, 20}), b({20, 12});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  for (float& v : a.flat()) {
    if (rng.bernoulli(0.6)) v = 0.0f;
  }
  const CsrMatrix csr = csr_from_dense(a.data(), 9, 20);
  Tensor full({9, 12});
  csr_matmul(csr, b.data(), 12, full.data());
  Tensor split({9, 12});
  csr_matmul_rows(csr, 0, 4, b.data(), 12, split.data());
  csr_matmul_rows(csr, 4, 9, b.data(), 12, split.data() + 4 * 12);
  EXPECT_TRUE(ops::allclose(split, full, 0, 0));
  // Columns 0..4 alone (the first samples of a staged block).
  Tensor b_left({20, 5});
  for (int64_t r = 0; r < 20; ++r) {
    for (int64_t j = 0; j < 5; ++j) b_left(r, j) = b(r, j);
  }
  Tensor left({9, 5});
  csr_matmul_rows(csr, 0, 9, b_left.data(), 5, left.data());
  for (int64_t r = 0; r < 9; ++r) {
    for (int64_t j = 0; j < 5; ++j) EXPECT_EQ(left(r, j), full(r, j));
  }
}

// ---- CSR executors of single pruned layers vs the dense eval forward ----

// A one-layer model, so a compiled executor can be compared with the
// layer's own eval forward.
template <typename L, typename... Args>
std::pair<std::unique_ptr<Sequential>, L*> single_layer(Args&&... args) {
  auto layer = std::make_unique<L>(std::forward<Args>(args)...);
  L* raw = layer.get();
  auto seq = std::make_unique<Sequential>("single");
  seq->add(std::move(layer));
  return {std::move(seq), raw};
}

TEST(CsrExecutor, ConvMatchesDenseForwardUnderMask) {
  auto [model, conv] = single_layer<Conv2d>("c", 3, 5, 3, 1, 1, true);
  Rng rng(3);
  kaiming_normal(conv->weight().data, rng);
  rng.fill_normal(conv->bias()->data, 0, 0.1f);
  // Prune 80% of the weights.
  rng.fill_bernoulli(conv->weight().mask, 0.2);
  conv->weight().apply_mask();

  Tensor x({4, 3, 6, 6});
  rng.fill_normal(x, 0, 1);
  const serve::Executor exec = serve::compile(*model, {3, 6, 6}, serve::ExecMode::Csr);
  EXPECT_NEAR(static_cast<double>(exec.flops_effective()) / exec.flops_dense(), 0.2, 0.07);
  EXPECT_TRUE(ops::allclose(exec.forward(x), conv->forward(x, false), 1e-4f, 1e-4f));
}

TEST(CsrExecutor, StridedAndPaddedGeometry) {
  auto [model, conv] = single_layer<Conv2d>("c", 2, 4, 3, 2, 1, false);
  Rng rng(5);
  kaiming_normal(conv->weight().data, rng);
  Tensor x({2, 2, 7, 7});
  rng.fill_normal(x, 0, 1);
  const serve::Executor exec = serve::compile(*model, {2, 7, 7}, serve::ExecMode::Csr);
  EXPECT_TRUE(ops::allclose(exec.forward(x), conv->forward(x, false), 1e-4f, 1e-4f));
}

TEST(CsrExecutor, RejectsWrongInput) {
  auto [model, conv] = single_layer<Conv2d>("c", 3, 4, 3, 1, 1, false);
  const serve::Executor exec = serve::compile(*model, {3, 6, 6}, serve::ExecMode::Csr);
  EXPECT_THROW(exec.forward(Tensor({1, 2, 6, 6})), std::invalid_argument);
}

TEST(CsrExecutor, LinearMatchesDenseForwardUnderMask) {
  auto [model, fc] = single_layer<Linear>("fc", 10, 6, true);
  Rng rng(7);
  kaiming_normal(fc->weight().data, rng);
  rng.fill_normal(fc->bias()->data, 0, 0.1f);
  rng.fill_bernoulli(fc->weight().mask, 0.3);
  fc->weight().apply_mask();

  Tensor x({5, 10});
  rng.fill_normal(x, 0, 1);
  const serve::Executor exec = serve::compile(*model, {10}, serve::ExecMode::Csr);
  EXPECT_TRUE(ops::allclose(exec.forward(x), fc->forward(x, false), 1e-4f, 1e-4f));
}

TEST(CsrExecutor, FullyPrunedLinearYieldsBiasOnly) {
  auto [model, fc] = single_layer<Linear>("fc", 4, 3, true);
  Rng rng(9);
  kaiming_normal(fc->weight().data, rng);
  fc->bias()->data = Tensor::of({1.0f, 2.0f, 3.0f});
  fc->weight().mask.zero();
  fc->weight().apply_mask();
  const serve::Executor exec = serve::compile(*model, {4}, serve::ExecMode::Csr);
  Tensor x({2, 4});
  rng.fill_normal(x, 0, 1);
  const Tensor y = exec.forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y(1, 2), 3.0f);
}

TEST(Csr, RejectsRankOneParameter) {
  Parameter bias("b", {4}, false);
  EXPECT_THROW(csr_from_parameter(bias), std::invalid_argument);
}

}  // namespace
}  // namespace shrinkbench
