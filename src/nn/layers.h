// Layers with explicit forward/backward passes (reverse-mode autodiff by
// hand). Conv2d and Linear run on one single-threaded row-major GEMM
// (Conv2d through im2col). It dispatches on simd::active_level() like the
// qsim kernels: AVX2 register tiles (nn/gemm_simd.h) that are bitwise equal
// to the plain loops, so a network's outputs do not depend on
// QUGEO_THREADS or QUGEO_SIMD.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace qugeo::nn {

/// Base class for differentiable layers. forward() caches whatever backward()
/// needs; backward() receives dL/d(output) and returns dL/d(input), adding
/// parameter gradients into the layer's Param::grad tensors. backward()
/// throws std::invalid_argument when no forward() ran or grad_out's shape
/// differs from the last forward() output's.
class Layer {
 public:
  virtual ~Layer() = default;

  [[nodiscard]] virtual Tensor forward(const Tensor& x) = 0;
  [[nodiscard]] virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Trainable parameters (empty for stateless layers).
  [[nodiscard]] virtual std::vector<Param*> params() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Total trainable scalar count.
  [[nodiscard]] std::size_t param_count();
};

/// 2-D convolution over [N, C, H, W] with zero padding, as im2col plus
/// one GEMM per batch item. The constructor rejects kernel or stride 0;
/// forward() throws std::invalid_argument when the kernel is larger than
/// the padded input.
class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

 private:
  std::size_t in_ch_, out_ch_, kernel_, stride_, padding_;
  Param weight_;  // [out, in, k, k]
  Param bias_;    // [out]
  std::vector<std::size_t> in_shape_, out_shape_;  // of the last forward()
  Tensor cols_;   // [N, in*k*k, OH*OW]: im2col of the last forward() input
  Tensor dcols_;  // [in*k*k, OH*OW]: backward() scratch, one batch item
};

/// Fully connected layer over [N, F].
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Linear"; }

 private:
  std::size_t in_f_, out_f_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  Tensor input_;
  std::vector<std::size_t> out_shape_;  // of the last forward()
};

/// Elementwise rectified linear unit.
class ReLU final : public Layer {
 public:
  [[nodiscard]] Tensor forward(const Tensor& x) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor input_;
};

/// Elementwise logistic sigmoid (used by decoder heads that must emit
/// values in (0, 1), mirroring the bounded quantum measurements).
class Sigmoid final : public Layer {
 public:
  [[nodiscard]] Tensor forward(const Tensor& x) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }

 private:
  Tensor output_;
};

/// Max pooling over [N, C, H, W] with square window and equal stride. The
/// first maximum of a window wins its gradient; a NaN in a window is its
/// output (the first NaN wins).
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t kernel);

  [[nodiscard]] Tensor forward(const Tensor& x) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

 private:
  std::size_t kernel_;
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> in_shape_, out_shape_;  // of the last forward()
};

/// [N, C, H, W] -> [N, C*H*W] (any rank: dims 1 and up fold into one).
class Flatten final : public Layer {
 public:
  [[nodiscard]] Tensor forward(const Tensor& x) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> in_shape_;
};

/// Ordered container chaining layers; owns them.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Append a layer (builder style).
  Sequential& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  [[nodiscard]] Tensor forward(const Tensor& x) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }
  [[nodiscard]] std::size_t size() const noexcept { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace qugeo::nn
