// QuGeoModel: encoder + ansatz + decoder, end to end.
//
// forward: waveform batch --StEncoder--> |psi_in>
//          --qsim::run_probabilities(ansatz)--> Born probabilities
//          --Decoder--> predicted velocity maps.
// backward: loss cotangent --Decoder.probability_grads--> dL/dp
//          --observables--> dL/d(conj psi) --adjoint_backward--> dL/dtheta.
//
// The model owns its trainable parameters: the ansatz angle table plus the
// decoder's classical parameters (the pixel decoder's output scale).
//
// Backend selection: ModelConfig carries a qsim::ExecutionConfig that picks
// the simulation backend for the inference/readout path (predict). The
// default — noiseless statevector — reproduces the pre-backend pipeline
// bit-identically; the density-matrix and trajectory backends run the same
// pipeline under exact or sampled NoiseModel channels (the NISQ ablation),
// and a positive `shots` budget on any of the three reads every expectation
// from sampled measurements (the shot readout stage of
// qsim::run_probabilities) instead of exact probabilities.
// Training gradients (loss_and_gradient) always use the exact noiseless
// statevector + adjoint path, mirroring the paper's noiseless training; the
// backend choice governs how the trained model is *read out*. Both paths
// execute the ansatz as built, from one qsim::Binding of the ansatz that
// the model rebuilds whenever its angles change (construction and
// set_parameters): every chunk, eval pass and served request between two
// parameter updates reads the same gate matrices.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ansatz.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/layout.h"
#include "data/dataset.h"
#include "qsim/backend.h"
#include "qsim/circuit.h"
#include "qsim/executor.h"

namespace qugeo::core {

struct ModelConfig {
  /// Data qubits per encoder group; the product of 2^sizes must equal the
  /// waveform length (default: one 8-qubit group for 256 values).
  std::vector<Index> group_data_qubits = {8};
  Index batch_log2 = 0;  ///< QuBatch: process 2^b samples per circuit
  AnsatzConfig ansatz;
  DecoderKind decoder = DecoderKind::kLayer;
  std::size_t vel_rows = 8;
  std::size_t vel_cols = 8;
  Real param_init_range = 0.1;  ///< angles ~ U(-r, r) at initialization
  /// Simulation backend for the inference path (see header comment). The
  /// constructor applies the QUGEO_BACKEND / QUGEO_NOISE_P /
  /// QUGEO_NOISE_CHANNEL / QUGEO_READOUT_P / QUGEO_TRAJECTORIES /
  /// QUGEO_SHOTS environment overrides on top of this (and rejects a
  /// malformed QUGEO_SIMD).
  qsim::ExecutionConfig execution;
};

class QuGeoModel {
 public:
  QuGeoModel(const ModelConfig& config, Rng& init_rng);

  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }
  [[nodiscard]] const QubitLayout& layout() const noexcept { return *layout_; }

  /// Effective execution config (after environment overrides).
  [[nodiscard]] const qsim::ExecutionConfig& execution_config() const noexcept {
    return exec_;
  }
  /// Re-point the inference path at a different backend / noise model; the
  /// sanctioned way to run the noise-robustness ablation on a trained model.
  void set_execution_config(const qsim::ExecutionConfig& exec) { exec_ = exec; }

  /// Not a cache: every counter reads 0, because no path compiles or
  /// memoizes a circuit. Exists only for the counters perfbench reads
  /// (perfbench/train.cpp:376-380, perfbench/serve.cpp:340-349); drop it
  /// with the next change to the benchmark.
  struct NoCompileCache {
    static constexpr std::size_t compile_count() noexcept { return 0; }
    static constexpr std::size_t hit_count() noexcept { return 0; }
    static constexpr std::size_t plan_compile_count() noexcept { return 0; }
    static constexpr std::size_t plan_hit_count() noexcept { return 0; }
  };
  [[nodiscard]] static const NoCompileCache* compile_cache() noexcept {
    static constexpr NoCompileCache kNone{};
    return &kNone;
  }

  [[nodiscard]] const qsim::Circuit& ansatz() const noexcept { return ansatz_; }
  [[nodiscard]] Index batch_size() const noexcept { return layout_->batch_size(); }

  /// Quantum + classical trainable parameter counts.
  [[nodiscard]] std::size_t num_quantum_params() const { return ansatz_.num_params(); }
  [[nodiscard]] std::size_t num_params() const {
    return num_quantum_params() + decoder_->num_classical_params();
  }

  /// Flat parameter view (quantum angles then classical decoder params).
  [[nodiscard]] std::vector<Real> parameters() const;
  /// Replace every parameter and rebind the ansatz to the new angles.
  void set_parameters(std::span<const Real> params);

  /// Predict velocity maps for any number of samples; batching chunks are
  /// handled internally (the final chunk is padded by repetition).
  [[nodiscard]] std::vector<std::vector<Real>> predict(
      std::span<const data::ScaledSample* const> samples) const;

  /// As predict, but through an explicit ExecutionConfig instead of the
  /// model's configured one — the one-off form the shot/noise ablations
  /// use.
  [[nodiscard]] std::vector<std::vector<Real>> predict_with(
      std::span<const data::ScaledSample* const> samples,
      const qsim::ExecutionConfig& exec) const;

  /// Sum-of-squares loss (Eq. 2 / Eq. 3) and gradient over one QuBatch
  /// chunk of exactly batch_size() samples. Gradients are ADDED into
  /// `grad_out` (size num_params()). Returns the summed loss.
  Real loss_and_gradient(std::span<const data::ScaledSample* const> chunk,
                         std::span<Real> grad_out) const;

  /// Loss only (for tests and line searches).
  [[nodiscard]] Real loss(std::span<const data::ScaledSample* const> chunk) const;

 private:
  /// Exact pure-state forward pass (training path; adjoint needs psi).
  [[nodiscard]] qsim::StateVector run_forward(
      std::span<const data::ScaledSample* const> chunk) const;

  /// Backend-driven forward pass: encode, execute with
  /// qsim::run_probabilities under `exec`, return the Born probabilities
  /// (inference path). `stream` salts the trajectory/shot seed per QuBatch
  /// chunk so different samples see independent noise realizations
  /// (sampling error then averages out across a dataset instead of being
  /// perfectly correlated).
  [[nodiscard]] std::vector<Real> run_forward_probabilities(
      std::span<const data::ScaledSample* const> chunk,
      const qsim::ExecutionConfig& exec, std::uint64_t stream) const;

  ModelConfig config_;
  qsim::ExecutionConfig exec_;
  /// On the heap: encoder_ and decoder_ point at it, and a move of the
  /// model must not leave them pointing into the moved-from object.
  std::unique_ptr<const QubitLayout> layout_;
  qsim::Circuit ansatz_;
  StEncoder encoder_;
  std::unique_ptr<Decoder> decoder_;
  std::vector<Real> theta_;
  qsim::Binding binding_;  ///< the ansatz bound to theta_
};

}  // namespace qugeo::core
