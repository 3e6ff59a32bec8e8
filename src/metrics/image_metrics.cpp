#include "metrics/image_metrics.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace qugeo::metrics {
namespace {

void check_sizes(std::span<const Real> a, std::span<const Real> b) {
  if (a.size() != b.size() || a.empty())
    throw std::invalid_argument("metrics: size mismatch or empty input");
}

}  // namespace

Real ssim(std::span<const Real> a, std::span<const Real> b, std::size_t rows,
          std::size_t cols, const SsimOptions& options) {
  check_sizes(a, b);
  if (a.size() != rows * cols)
    throw std::invalid_argument("ssim: rows*cols does not match data size");

  // Shrink the window to fit small images, keeping it odd and >= 1.
  std::size_t win = std::min({options.window, rows, cols});
  if (win % 2 == 0) --win;
  if (win == 0) win = 1;

  Real range = options.data_range;
  if (range <= 0) {
    const auto [amin, amax] = std::minmax_element(a.begin(), a.end());
    const auto [bmin, bmax] = std::minmax_element(b.begin(), b.end());
    range = std::max(*amax, *bmax) - std::min(*amin, *bmin);
    if (range <= 0) range = 1;
  }
  const Real c1 = (options.k1 * range) * (options.k1 * range);
  const Real c2 = (options.k2 * range) * (options.k2 * range);

  const std::size_t n_win = win * win;
  const Real inv_n = Real(1) / static_cast<Real>(n_win);
  // Sample (not population) statistics, matching skimage's default.
  const Real norm = n_win > 1
                        ? static_cast<Real>(n_win) / static_cast<Real>(n_win - 1)
                        : Real(1);

  Real total = 0;
  std::size_t count = 0;
  for (std::size_t r = 0; r + win <= rows; ++r) {
    for (std::size_t c = 0; c + win <= cols; ++c) {
      Real sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
      for (std::size_t i = 0; i < win; ++i) {
        const std::size_t base = (r + i) * cols + c;
        for (std::size_t j = 0; j < win; ++j) {
          const Real va = a[base + j];
          const Real vb = b[base + j];
          sa += va;
          sb += vb;
          saa += va * va;
          sbb += vb * vb;
          sab += va * vb;
        }
      }
      const Real mu_a = sa * inv_n;
      const Real mu_b = sb * inv_n;
      const Real var_a = (saa * inv_n - mu_a * mu_a) * norm;
      const Real var_b = (sbb * inv_n - mu_b * mu_b) * norm;
      const Real cov = (sab * inv_n - mu_a * mu_b) * norm;
      const Real num = (2 * mu_a * mu_b + c1) * (2 * cov + c2);
      const Real den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2);
      total += num / den;
      ++count;
    }
  }
  return count == 0 ? Real(0) : total / static_cast<Real>(count);
}

Real mse(std::span<const Real> a, std::span<const Real> b) {
  check_sizes(a, b);
  Real s = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const Real d = a[k] - b[k];
    s += d * d;
  }
  return s / static_cast<Real>(a.size());
}

}  // namespace qugeo::metrics
