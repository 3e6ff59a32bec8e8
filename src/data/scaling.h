// QuGeoData scalers (Sec. 3.1): three ways of shrinking a raw FWI sample to
// quantum scale.
//
//  * DSampleScaler — the paper's baseline: nearest-neighbour resampling of
//    both the waveform and the velocity map (physically incoherent for the
//    waveform, which is the point of Figure 6).
//  * ForwardModelScaler (Q-D-FW) — physics-guided: downsample the velocity
//    map, re-run forward modelling with the 8 Hz source.
//  * CnnScaler (Q-D-CNN, see cnn_scaler.h) — learned compression that needs
//    no velocity map at inference time.
#pragma once

#include <memory>
#include <string>

#include "data/dataset.h"

namespace qugeo::data {

/// Common interface: map one raw sample to a quantum-scale sample.
class Scaler {
 public:
  virtual ~Scaler() = default;

  [[nodiscard]] virtual ScaledSample scale(const RawSample& raw) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Scale a whole dataset, each sample into its own slot (over the pool
  /// when scales_concurrently()); `target` describes the output shape
  /// recorded in the dataset metadata and must match what scale() produces.
  [[nodiscard]] ScaledDataset scale_dataset(const RawDataset& raw,
                                            const struct ScaleTarget& target) const;

 protected:
  /// True when scale() shares no mutable state between calls, so
  /// scale_dataset may run it on several samples at once.
  [[nodiscard]] virtual bool scales_concurrently() const { return false; }
};

/// Target shape shared by all scalers: 256 waveform values and an 8x8 map.
/// The 32-sample time axis keeps the recording Nyquist (16 Hz) above the
/// 8 Hz source the physics-guided scaler uses — exactly why Sec. 3.1.1
/// lowers the wavelet frequency instead of decimating harder.
struct ScaleTarget {
  std::size_t nsrc = 1;
  std::size_t nt = 32;
  std::size_t nrec = 8;
  std::size_t vel_rows = 8;
  std::size_t vel_cols = 8;
  /// Spherical-divergence / attenuation compensation: trace samples are
  /// multiplied by (t/nt)^power before encoding, so late (deep-reflection)
  /// arrivals are not drowned out by the direct wave once the quantum
  /// encoder L2-normalizes the amplitudes. 0 disables. Applied uniformly by
  /// every scaler (a textbook gain-recovery step, not a model advantage).
  Real time_gain_power = 2.0;
};

/// An n-sample dataset named `name`, shaped as `target` says, its samples
/// still empty: what Scaler::scale_dataset fills.
[[nodiscard]] ScaledDataset make_scaled_dataset(std::string name,
                                                const ScaleTarget& target,
                                                std::size_t n);

/// Apply the ScaleTarget's time gain to a (nsrc, nt, nrec) waveform in place.
void apply_time_gain(std::vector<Real>& waveform, const ScaleTarget& target);

/// Nearest-neighbour downsampling of waveform and velocity ("D-Sample").
class DSampleScaler final : public Scaler {
 public:
  explicit DSampleScaler(ScaleTarget target = {}) : target_(target) {}
  [[nodiscard]] ScaledSample scale(const RawSample& raw) const override;
  [[nodiscard]] std::string name() const override { return "D-Sample"; }

 private:
  ScaleTarget target_;
};

/// Physics-guided re-modelling ("Q-D-FW"). Requires the velocity map, so it
/// is a training-time-only scaler (Sec. 3.1.2 motivates the CNN for
/// deployment). Each sample is one FDTD re-model, so scale_dataset runs
/// the samples over the pool.
class ForwardModelScaler final : public Scaler {
 public:
  explicit ForwardModelScaler(ScaleTarget target = {},
                              seismic::Acquisition acq = seismic::quantum_acquisition(),
                              std::size_t sim_refine = 8);
  [[nodiscard]] ScaledSample scale(const RawSample& raw) const override;
  [[nodiscard]] std::string name() const override { return "Q-D-FW"; }

 private:
  [[nodiscard]] bool scales_concurrently() const override { return true; }

  ScaleTarget target_;
  seismic::Acquisition acq_;
  std::size_t sim_refine_;
};

/// Downsample + normalize only the velocity map (shared by all scalers).
[[nodiscard]] std::vector<Real> scale_velocity_map(
    const seismic::VelocityModel& velocity, std::size_t rows, std::size_t cols);

/// The shots of an nsrc-shot volume that a target_nsrc-shot pick reads:
/// the middle shot {nsrc / 2} when target_nsrc is 1, else
/// s * (nsrc - 1) / (target_nsrc - 1) for each s (repeats when
/// target_nsrc > nsrc). D-Sample and the Q-D-CNN input decimation both
/// pick this way, and picking again from a picked volume reads every shot
/// in order, so a volume holding only the picked shots scales exactly as
/// the full one. Throws std::invalid_argument when nsrc is 0.
[[nodiscard]] std::vector<std::size_t> picked_sources(std::size_t nsrc,
                                                      std::size_t target_nsrc);

/// Nearest-neighbour waveform resampling used by D-Sample (exposed for the
/// Figure 6 visualization bench).
[[nodiscard]] std::vector<Real> nearest_neighbor_waveform(
    const seismic::SeismicData& seismic, const ScaleTarget& target);

}  // namespace qugeo::data
