// 2-D convolution (NCHW) via im2col + GEMM. Weight shape: [out_c, in_c, kh, kw].
//
// forward() runs the one fused conv kernel, conv_grid (nn/conv_grid.hpp),
// in train and eval mode alike; serve::ConvOp runs the same kernel, so a
// Dense executor matches the eval-mode forward bit for bit by
// construction. backward() recomputes the batched im2col columns.
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace shrinkbench {

class Conv2d : public Layer {
 public:
  Conv2d(std::string name, int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride = 1,
         int64_t pad = 0, bool bias = false);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;
  Shape output_sample_shape(const Shape& in) const override;
  int64_t flops(const Shape& in) const override;
  int64_t effective_flops(const Shape& in) const override;

  int64_t in_channels() const { return in_c_; }
  int64_t out_channels() const { return out_c_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t padding() const { return pad_; }
  Parameter& weight() { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }

 private:
  ConvGeometry geometry(int64_t h, int64_t w) const;

  int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

}  // namespace shrinkbench
