// Learning-rate schedules. The paper trains every model with an initial lr
// of 0.1 followed by cosine annealing over 500 epochs.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace qugeo::nn {

/// Cosine annealing from `initial_lr` down to `min_lr` over `total_epochs`.
class CosineAnnealingLr {
 public:
  CosineAnnealingLr(Real initial_lr, std::size_t total_epochs, Real min_lr = 0);

  /// Learning rate at 0-based epoch `epoch` (clamped to the final value
  /// beyond total_epochs).
  [[nodiscard]] Real lr(std::size_t epoch) const noexcept;

 private:
  Real initial_lr_, min_lr_;
  std::size_t total_epochs_;
};

}  // namespace qugeo::nn
