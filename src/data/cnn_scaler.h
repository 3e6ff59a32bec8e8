// Q-D-CNN: the LeNet-like learned data compressor of Sec. 3.1.2.
//
// Training pairs <D, phyD> are built from raw waveforms D and the
// physics-guided Q-D-FW waveforms phyD; the CNN learns to emit
// physics-coherent quantum-scale data from the raw recording alone, so the
// scaler works in deployment where no velocity map exists. Architecture:
// two convolution+ReLU stages and one fully connected layer, exactly the
// shape the paper describes.
#pragma once

#include <memory>

#include "data/scaling.h"
#include "nn/layers.h"

namespace qugeo::data {

struct CnnScalerConfig {
  /// The raw volume is decimated to [channels, time_rows, rec_cols] before
  /// entering the CNN (keeps the FC layer a sane size). The channels are
  /// the target's ScaleTarget::nsrc shots, picked from the raw volume by
  /// picked_sources() (the middle shot at the default target), not the
  /// raw volume's own sources.
  std::size_t input_time_rows = 64;
  std::size_t input_rec_cols = 16;
  std::size_t epochs = 150;
  Real initial_lr = 1e-3;
  std::size_t batch_size = 8;
};

/// Learned compressor; construct via train_cnn_scaler. Its nn layers own
/// scratch buffers, so scale_dataset runs it one sample at a time.
class CnnScaler final : public Scaler {
 public:
  [[nodiscard]] ScaledSample scale(const RawSample& raw) const override;
  [[nodiscard]] std::string name() const override { return "Q-D-CNN"; }

  /// Compress a raw waveform (without touching the velocity map).
  [[nodiscard]] std::vector<Real> compress(const seismic::SeismicData& seismic) const;

  [[nodiscard]] std::size_t param_count() const;

 private:
  friend CnnScaler train_cnn_scaler(const RawDataset&, const ScaleTarget&,
                                    const CnnScalerConfig&, Rng&);
  CnnScaler() = default;

  ScaleTarget target_;
  CnnScalerConfig config_;
  Real input_scale_ = 1.0;  ///< 1 / max|raw waveform| over the training set
  std::shared_ptr<nn::Sequential> net_;  // shared so the scaler is copyable
};

/// Train the compressor on `train_set`: inputs are decimated raw waveforms,
/// targets are per-sample L2-normalized Q-D-FW waveforms. Returns the ready
/// scaler. Deterministic given `rng`.
[[nodiscard]] CnnScaler train_cnn_scaler(const RawDataset& train_set,
                                         const ScaleTarget& target,
                                         const CnnScalerConfig& config,
                                         Rng& rng);

}  // namespace qugeo::data
