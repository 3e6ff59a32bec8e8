#include "seismic/wavelet.h"

#include <cmath>
#include <stdexcept>

namespace qugeo::seismic {

RickerWavelet::RickerWavelet(Real peak_freq_hz, Real delay_s)
    : freq_(peak_freq_hz),
      delay_(delay_s < 0 ? Real(1.5) / peak_freq_hz : delay_s) {
  if (!(std::isfinite(peak_freq_hz) && peak_freq_hz > 0))
    throw std::invalid_argument(
        "RickerWavelet: frequency must be finite and positive");
  if (!std::isfinite(delay_s))
    throw std::invalid_argument("RickerWavelet: delay must be finite");
}

Real RickerWavelet::operator()(Real t) const noexcept {
  const Real arg = kPi * freq_ * (t - delay_);
  const Real a = arg * arg;
  return (Real(1) - 2 * a) * std::exp(-a);
}

std::vector<Real> RickerWavelet::sample(std::size_t nt, Real dt) const {
  std::vector<Real> w(nt);
  for (std::size_t i = 0; i < nt; ++i) w[i] = (*this)(static_cast<Real>(i) * dt);
  return w;
}

}  // namespace qugeo::seismic
