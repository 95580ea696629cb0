// Fully-connected layer: y = x W^T + b, weight shape [out, in].
#pragma once

#include "nn/layer.hpp"

namespace shrinkbench {

/// The fully-connected forward kernel shared by Linear::forward and the
/// Dense serve::LinearOp: y [n, out] = x [n, in] · wᵀ (+ bias), with w
/// [out, in] and bias nullptr or `out` floats. y need not be initialised.
void linear_forward(const float* x, int64_t n, int64_t in, int64_t out, const float* w,
                    const float* bias, float* y);

class Linear : public Layer {
 public:
  /// If is_classifier, the weight is flagged so pruning strategies skip it
  /// by default (paper, Appendix C.1).
  Linear(std::string name, int64_t in_features, int64_t out_features, bool bias = true,
         bool is_classifier = false);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;
  Shape output_sample_shape(const Shape& in) const override;
  int64_t flops(const Shape& in) const override;
  int64_t effective_flops(const Shape& in) const override;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  Parameter& weight() { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }

 private:
  int64_t in_, out_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

}  // namespace shrinkbench
