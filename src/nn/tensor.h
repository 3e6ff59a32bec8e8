// Minimal dense row-major tensor for the classical NN substrate.
//
// Scope is deliberately narrow: the layers run their arithmetic on raw
// row-major buffers (nn/layers.cpp), so the tensor only owns a shape and
// its data. The element accessors are defined here so they inline into
// the loops that use them. Shapes follow the PyTorch conventions used by
// the paper's baselines: [N, C, H, W] for images and [N, F] for
// fully-connected activations.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace qugeo::nn {

class Tensor {
 public:
  Tensor() = default;
  /// Both constructors throw std::invalid_argument when the product of the
  /// shape's dims overflows std::size_t.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::vector<std::size_t> shape, std::vector<Real> data);

  [[nodiscard]] const std::vector<std::size_t>& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const { return shape_.at(i); }

  [[nodiscard]] std::span<const Real> data() const noexcept { return data_; }
  [[nodiscard]] std::span<Real> data_mut() noexcept { return data_; }

  [[nodiscard]] Real operator[](std::size_t i) const { return data_[i]; }
  Real& operator[](std::size_t i) { return data_[i]; }

  /// 4-D accessor for [N, C, H, W] tensors.
  [[nodiscard]] Real at4(std::size_t n, std::size_t c, std::size_t h,
                         std::size_t w) const {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  Real& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  /// 2-D accessor for [N, F] tensors.
  [[nodiscard]] Real at2(std::size_t n, std::size_t f) const {
    return data_[n * shape_[1] + f];
  }
  Real& at2(std::size_t n, std::size_t f) { return data_[n * shape_[1] + f]; }

  /// Same data, different shape (numel must match).
  [[nodiscard]] Tensor reshaped(std::vector<std::size_t> new_shape) const;

  void fill(Real value);
  void zero() { fill(0); }

  /// Kaiming-uniform initialization with the given fan-in.
  void init_kaiming(Rng& rng, std::size_t fan_in);

 private:
  std::vector<std::size_t> shape_;
  std::vector<Real> data_;
};

/// Trainable parameter: value plus accumulated gradient of equal shape.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(std::vector<std::size_t> shape)
      : value(shape), grad(std::move(shape)) {}
  [[nodiscard]] std::size_t numel() const noexcept { return value.numel(); }
};

}  // namespace qugeo::nn
