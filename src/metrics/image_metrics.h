// Image-quality metrics used throughout the paper's evaluation: SSIM (the
// headline score) and MSE. SSIM follows Wang et al. 2004 with the
// skimage-style uniform sliding window, shrunk automatically for the 8x8
// velocity maps.
#pragma once

#include <span>

#include "common/types.h"

namespace qugeo::metrics {

struct SsimOptions {
  std::size_t window = 7;   ///< odd window size; clamped to image dims
  Real k1 = 0.01;
  Real k2 = 0.03;
  /// Dynamic range L of the data. <= 0 means "use max(a,b) - min(a,b)".
  Real data_range = -1.0;
};

/// Mean structural similarity between two images of size rows x cols
/// (row-major). Returns a value in [-1, 1]; 1 means identical.
[[nodiscard]] Real ssim(std::span<const Real> a, std::span<const Real> b,
                        std::size_t rows, std::size_t cols,
                        const SsimOptions& options = {});

/// Mean squared error.
[[nodiscard]] Real mse(std::span<const Real> a, std::span<const Real> b);

}  // namespace qugeo::metrics
