#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace qugeo::nn {
namespace {

/// Element count of `shape`; a product that wraps would size the buffer
/// smaller than the indices the shape admits, so it throws instead.
std::size_t shape_numel(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) {
    if (d != 0 && n > std::numeric_limits<std::size_t>::max() / d)
      throw std::invalid_argument("Tensor: shape element count overflows size_t");
    n *= d;
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), Real(0)) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<Real> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_numel(shape_))
    throw std::invalid_argument("Tensor: data size does not match shape");
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  if (shape_numel(new_shape) != numel())
    throw std::invalid_argument("Tensor::reshaped: numel mismatch");
  return Tensor(std::move(new_shape), std::vector<Real>(data_.begin(), data_.end()));
}

void Tensor::fill(Real value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::init_kaiming(Rng& rng, std::size_t fan_in) {
  const Real bound = std::sqrt(Real(6) / static_cast<Real>(fan_in == 0 ? 1 : fan_in));
  rng.fill_uniform(data_, -bound, bound);
}

}  // namespace qugeo::nn
