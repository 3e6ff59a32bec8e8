// Loss functions returning both the scalar and the gradient w.r.t. the
// prediction, matching Eq. 2 (pixel-wise MSE) in the paper.
#pragma once

#include "nn/tensor.h"

namespace qugeo::nn {

struct LossResult {
  Real value = 0;
  Tensor grad;  ///< dL/d(prediction), same shape as the prediction.
};

/// Mean squared error over all elements: L = mean((pred - target)^2).
[[nodiscard]] LossResult mse_loss(const Tensor& pred, const Tensor& target);

}  // namespace qugeo::nn
