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
#include <span>

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

/// The CNN's input before its scale: the target's picked shots of a raw
/// volume (picked_sources), each decimated to input_time_rows x
/// input_rec_cols by nearest neighbour, as a [1, nsrc, rows, cols] tensor.
/// The scaler multiplies every value by its input scale once, so a caller
/// may keep this pick and drop the volume before the scale is known.
[[nodiscard]] nn::Tensor cnn_input_pick(const seismic::SeismicData& seismic,
                                        const ScaleTarget& target,
                                        const CnnScalerConfig& config);

/// max |v| over raw samples (NaN skipped). The largest over every shot of
/// the training volumes sets the scaler's input scale; max is exact, so
/// any grouping of the shots gives the same value.
[[nodiscard]] Real max_abs_amplitude(std::span<const Real> samples);

/// What the compressor learns from, one entry per training map.
struct CnnTrainingSet {
  std::vector<nn::Tensor> picks;           ///< cnn_input_pick of each volume
  std::vector<std::vector<Real>> targets;  ///< each map's Q-D-FW waveform
  Real max_abs = 0;  ///< max_abs_amplitude over every training shot
};

/// Learned compressor; construct via train_cnn_scaler. Its nn layers own
/// scratch buffers, so scale_dataset runs it one sample at a time.
class CnnScaler final : public Scaler {
 public:
  [[nodiscard]] ScaledSample scale(const RawSample& raw) const override;
  [[nodiscard]] std::string name() const override { return "Q-D-CNN"; }

  /// scale() of a sample from its map and the cnn_input_pick of its
  /// volume; bitwise scale() of that sample.
  [[nodiscard]] ScaledSample scale(
      nn::Tensor pick, const seismic::VelocityModel& velocity) const;

  /// Compress a raw waveform (without touching the velocity map).
  [[nodiscard]] std::vector<Real> compress(const seismic::SeismicData& seismic) const;

  [[nodiscard]] std::size_t param_count() const;

 private:
  friend CnnScaler train_cnn_scaler(CnnTrainingSet, const ScaleTarget&,
                                    const CnnScalerConfig&, Rng&);
  CnnScaler() = default;

  /// The pick times input_scale_: the network's input.
  [[nodiscard]] nn::Tensor scaled_input(nn::Tensor pick) const;
  /// compress() of the volume whose cnn_input_pick this is.
  [[nodiscard]] std::vector<Real> compress(nn::Tensor pick) const;

  ScaleTarget target_;
  CnnScalerConfig config_;
  Real input_scale_ = 1.0;  ///< 1 / max|raw waveform| over the training set
  std::shared_ptr<nn::Sequential> net_;  // shared so the scaler is copyable
};

/// Train the compressor on `train_set`: inputs are decimated raw waveforms,
/// targets are per-sample L2-normalized Q-D-FW waveforms. Returns the ready
/// scaler. Deterministic given `rng`. Gathers the CnnTrainingSet of the
/// volumes (re-modelling the targets over the pool) and trains on it.
[[nodiscard]] CnnScaler train_cnn_scaler(const RawDataset& train_set,
                                         const ScaleTarget& target,
                                         const CnnScalerConfig& config,
                                         Rng& rng);

/// The same training from a gathered set, on the calling thread; bitwise
/// the scaler above when the set holds what it gathers. Throws
/// std::invalid_argument when the set is empty or ragged.
[[nodiscard]] CnnScaler train_cnn_scaler(CnnTrainingSet train_set,
                                         const ScaleTarget& target,
                                         const CnnScalerConfig& config,
                                         Rng& rng);

}  // namespace qugeo::data
