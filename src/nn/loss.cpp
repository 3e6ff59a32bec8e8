#include "nn/loss.h"

#include <stdexcept>

namespace qugeo::nn {

LossResult mse_loss(const Tensor& pred, const Tensor& target) {
  if (pred.numel() != target.numel())
    throw std::invalid_argument("mse_loss: size mismatch");
  LossResult r;
  r.grad = Tensor(pred.shape());
  const auto p = pred.data();
  const auto t = target.data();
  auto g = r.grad.data_mut();
  const Real inv_n = Real(1) / static_cast<Real>(pred.numel());
  for (std::size_t k = 0; k < p.size(); ++k) {
    const Real d = p[k] - t[k];
    r.value += d * d * inv_n;
    g[k] = 2 * d * inv_n;
  }
  return r;
}

}  // namespace qugeo::nn
