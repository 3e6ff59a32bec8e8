// Ricker wavelet properties: peak location/value, zero crossings, symmetry,
// spectral behaviour of the 15 Hz -> 8 Hz change used by QuGeoData.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "seismic/wavelet.h"

namespace qugeo::seismic {
namespace {

/// Frequency of the largest non-DC bin of a naive DFT of `trace`.
Real spectral_peak_hz(const std::vector<Real>& trace, Real dt) {
  const std::size_t n = trace.size();
  std::size_t best = 1;
  Real best_mag = -1;
  for (std::size_t k = 1; k <= n / 2; ++k) {
    Real re = 0, im = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const Real phase = -2 * kPi * static_cast<Real>(k * t) /
                         static_cast<Real>(n);
      re += trace[t] * std::cos(phase);
      im += trace[t] * std::sin(phase);
    }
    const Real mag = std::hypot(re, im);
    if (mag > best_mag) {
      best_mag = mag;
      best = k;
    }
  }
  return static_cast<Real>(best) / (static_cast<Real>(n) * dt);
}

TEST(Ricker, PeakAtDelayWithUnitAmplitude) {
  const RickerWavelet w(15.0);
  EXPECT_NEAR(w(w.delay()), 1.0, 1e-12);
}

TEST(Ricker, DefaultDelayScalesWithFrequency) {
  const RickerWavelet fast(15.0), slow(8.0);
  EXPECT_NEAR(fast.delay(), 0.1, 1e-12);
  EXPECT_NEAR(slow.delay(), 1.5 / 8.0, 1e-12);
  EXPECT_GT(slow.delay(), fast.delay());
}

TEST(Ricker, SymmetricAroundDelay) {
  const RickerWavelet w(10.0);
  for (Real dt : {0.01, 0.03, 0.07})
    EXPECT_NEAR(w(w.delay() + dt), w(w.delay() - dt), 1e-12);
}

TEST(Ricker, ZeroCrossingsAtKnownOffset) {
  // w(t) = 0 when (pi f tau)^2 = 1/2, i.e. tau = 1/(pi f sqrt(2)).
  const Real f = 12.0;
  const RickerWavelet w(f);
  const Real tau = 1.0 / (kPi * f * std::sqrt(2.0));
  EXPECT_NEAR(w(w.delay() + tau), 0.0, 1e-10);
  EXPECT_NEAR(w(w.delay() - tau), 0.0, 1e-10);
}

TEST(Ricker, StartsNearZero) {
  const RickerWavelet w(15.0);
  EXPECT_LT(std::abs(w(0.0)), 1e-3);
}

TEST(Ricker, LowerFrequencyHasWiderLobe) {
  // The paper lowers 15 Hz -> 8 Hz to widen the wavelength at coarse
  // sampling; the central lobe width (between zero crossings) must grow.
  const Real w15 = 2.0 / (kPi * 15.0 * std::sqrt(2.0));
  const Real w8 = 2.0 / (kPi * 8.0 * std::sqrt(2.0));
  EXPECT_GT(w8, w15 * 1.8);
}

TEST(Ricker, SampleBufferMatchesCallable) {
  const RickerWavelet w(9.0);
  const auto buf = w.sample(100, 0.002);
  ASSERT_EQ(buf.size(), 100u);
  for (std::size_t i = 0; i < 100; i += 13)
    EXPECT_EQ(buf[i], w(static_cast<Real>(i) * 0.002));
}

TEST(Ricker, MeanIsApproximatelyZero) {
  // The Ricker wavelet has zero DC component.
  const RickerWavelet w(10.0);
  const auto buf = w.sample(2000, 0.0005);
  Real sum = 0;
  for (Real v : buf) sum += v;
  EXPECT_NEAR(sum * 0.0005, 0.0, 1e-6);
}

TEST(Ricker, SpectralPeakTracksNominalFrequency) {
  // The spectral peak sits at the nominal peak frequency for both wavelets
  // QuGeoData uses, and the 8 Hz re-modelling wavelet peaks lower.
  const Real dt = 1e-3;
  const Real f15 = spectral_peak_hz(RickerWavelet(15.0).sample(1024, dt), dt);
  const Real f8 = spectral_peak_hz(RickerWavelet(8.0).sample(1024, dt), dt);
  EXPECT_NEAR(f15, 15.0, 0.25 * 15.0);
  EXPECT_NEAR(f8, 8.0, 0.25 * 8.0);
  EXPECT_LT(f8, f15);
}

TEST(Ricker, RejectsNonPositiveFrequency) {
  EXPECT_THROW(RickerWavelet(0.0), std::invalid_argument);
  EXPECT_THROW(RickerWavelet(-5.0), std::invalid_argument);
  // Non-finite frequencies used to build a wavelet that evaluates to NaN.
  EXPECT_THROW(RickerWavelet(std::nan("")), std::invalid_argument);
  EXPECT_THROW(RickerWavelet(std::numeric_limits<Real>::infinity()),
               std::invalid_argument);
}

TEST(Ricker, RejectsNonFiniteDelay) {
  EXPECT_THROW(RickerWavelet(15.0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(RickerWavelet(15.0, std::numeric_limits<Real>::infinity()),
               std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::seismic
