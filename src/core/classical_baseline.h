// Classical CNN baselines (Table 2): CNN-PX and CNN-LY, parameter-matched
// to the 576-parameter QuGeoVQC. Both consume the same quantum-scale
// waveforms (L2-normalized per sample, i.e. exactly what the quantum
// encoder sees) and emit velocity maps through a bounded sigmoid head, so
// the comparison isolates the model class.
#pragma once

#include <memory>

#include "core/decoder.h"
#include "core/trainer.h"
#include "data/cache.h"
#include "nn/layers.h"

namespace qugeo::core {

struct ClassicalConfig {
  DecoderKind decoder = DecoderKind::kPixel;
  std::size_t nsrc = 1, nt = 32, nrec = 8;  ///< acquisition metadata
  std::size_t vel_rows = 8, vel_cols = 8;
  /// When true, build an InversionNet-lite trunk (the paper's cited
  /// data-driven FWI reference, Wu et al. 2019, shrunk to the quantum-scale
  /// input): ~25k parameters instead of the parameter-matched few hundred.
  /// Used as an unconstrained upper-bound reference in Table 2.
  bool inversion_net_reference = false;
};

class ClassicalFwiNet {
 public:
  ClassicalFwiNet(const ClassicalConfig& config, Rng& rng);

  [[nodiscard]] std::size_t param_count() const { return net_->param_count(); }
  /// Every trainable value, layer by layer (each layer's weights, then bias).
  [[nodiscard]] std::vector<Real> parameters() const;
  [[nodiscard]] const ClassicalConfig& config() const noexcept { return config_; }

  /// Predict velocity maps (rows*cols each) for the given samples.
  [[nodiscard]] std::vector<std::vector<Real>> predict(
      std::span<const data::ScaledSample* const> samples) const;

  /// Train with the same schedule as the VQC (Adam + cosine annealing);
  /// returns the per-epoch curve and final test metrics.
  TrainResult train(const data::ScaledDataset& ds, const data::SplitView& split,
                    const TrainConfig& config);

 private:
  [[nodiscard]] nn::Tensor to_input(const data::ScaledSample& s) const;
  [[nodiscard]] std::vector<Real> head_to_map(const nn::Tensor& out) const;

  ClassicalConfig config_;
  std::shared_ptr<nn::Sequential> net_;
};

}  // namespace qugeo::core
