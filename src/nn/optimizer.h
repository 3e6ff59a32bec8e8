// Adam over Param lists (the CNN baselines and the Q-D-CNN scaler), plus
// the flat-vector Adam the VQC trainer uses. Adam matches the paper's
// training setup (Adam, lr 0.1, cosine annealing).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/tensor.h"

namespace qugeo::nn {

/// Adam (Kingma & Ba) with bias correction: beta1 0.9, beta2 0.999,
/// eps 1e-8.
class Adam {
 public:
  explicit Adam(std::vector<Param*> params);

  /// Apply one update using the current gradients and learning rate.
  void step(Real lr);

  /// Clear all accumulated gradients.
  void zero_grad();

 private:
  std::vector<Param*> params_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

/// Adam over one flat parameter vector (the VQC angle table + decoder
/// scale) — the trainer's optimizer. Unlike the Param-list Adam above, its
/// complete state is exposed for checkpointing: persisting {t, m, v} and
/// restoring them resumes training bit-identically (core/serialization
/// packs this into TrainCheckpoint).
class AdamFlat {
 public:
  explicit AdamFlat(std::size_t n) : m_(n, 0), v_(n, 0) {}

  /// One bias-corrected Adam update (beta1 0.9, beta2 0.999, eps 1e-8).
  void step(std::span<Real> params, std::span<const Real> grads, Real lr);

  /// Complete optimizer state; restore() of a state() snapshot resumes
  /// the update sequence bit-identically.
  struct State {
    std::uint64_t t = 0;          ///< update count (bias-correction clock)
    std::vector<Real> m, v;       ///< first/second moment estimates
  };
  [[nodiscard]] State state() const;
  /// Throws std::invalid_argument when the moment sizes do not match the
  /// parameter count this optimizer was built for.
  void restore(const State& state);

 private:
  std::uint64_t t_ = 0;
  std::vector<Real> m_, v_;
};

}  // namespace qugeo::nn
