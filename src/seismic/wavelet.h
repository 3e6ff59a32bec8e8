// Source wavelets for acoustic forward modelling. The paper's QuGeoData
// lowers the Ricker peak frequency from 15 Hz to 8 Hz when re-modelling at
// the quantum-scale resolution so no physical information is aliased away.
#pragma once

#include <vector>

#include "common/types.h"

namespace qugeo::seismic {

/// Ricker (Mexican-hat) wavelet: w(t) = (1 - 2 a) exp(-a), a = (pi f (t-t0))^2.
class RickerWavelet {
 public:
  /// @param peak_freq_hz  peak frequency in Hz.
  /// @param delay_s       time shift t0; defaults to 1.5 / f so the wavelet
  ///                      starts near zero amplitude.
  /// Throws std::invalid_argument unless the frequency is finite and
  /// positive and the delay finite (negative selects the default).
  explicit RickerWavelet(Real peak_freq_hz, Real delay_s = -1);

  [[nodiscard]] Real delay() const noexcept { return delay_; }

  /// Amplitude at time t (seconds).
  [[nodiscard]] Real operator()(Real t) const noexcept;

  /// Sample nt points with spacing dt.
  [[nodiscard]] std::vector<Real> sample(std::size_t nt, Real dt) const;

 private:
  Real freq_;
  Real delay_;
};

}  // namespace qugeo::seismic
