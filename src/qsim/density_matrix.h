// Dense density-matrix simulator for exact mixed-state evolution.
//
// Complements the trajectory sampler in noise.h: where trajectories give an
// unbiased stochastic estimate of the depolarizing channel, this class
// applies the channel exactly — rho -> (1-p) U rho U^+ + (p/3) sum_P P rho P
// — at O(4^n) memory, comfortably covering the paper's 8-16 qubit regime
// at the low end. It can run full circuits (gate application + Kraus /
// depolarizing channel ops), and backs DensityMatrixBackend in backend.h;
// tests use it to pin down the trajectory sampler, and the noise ablation
// for exact small-system numbers.
#pragma once

#include <span>
#include <vector>

#include "qsim/circuit.h"
#include "qsim/noise.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {

/// Largest qubit count the dense representation accepts (4^n complexes).
[[nodiscard]] Index max_density_qubits() noexcept;

class DensityMatrix {
 public:
  /// rho = |0...0><0...0| on `num_qubits` qubits.
  explicit DensityMatrix(Index num_qubits);

  /// rho = |psi><psi|.
  static DensityMatrix from_state(const StateVector& psi);

  [[nodiscard]] Index num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] Index dim() const noexcept { return dim_; }
  [[nodiscard]] Complex element(Index r, Index c) const {
    return rho_[r * dim_ + c];
  }

  /// Reset to |0...0><0...0|.
  void reset();

  /// Overwrite with the pure-state projector |psi><psi| (same qubit count).
  void set_from_state(const StateVector& psi);

  /// Apply a 1-qubit unitary: rho -> U rho U^+.
  void apply_1q(const Mat2& u, Index q);

  /// Controlled 1-qubit unitary (control = qubits[0] convention).
  void apply_controlled_1q(const Mat2& u, Index control, Index target);

  /// SWAP conjugation.
  void apply_swap(Index a, Index b);

  /// General 1-qubit quantum channel from its Kraus operators:
  /// rho -> sum_k K_k rho K_k^+. The caller is responsible for the
  /// completeness relation sum_k K_k^+ K_k = I (trace preservation).
  void apply_kraus(std::span<const Mat2> kraus, Index q);

  /// Exact single-qubit depolarizing channel with probability p, applied
  /// in place (no scratch copies): rho -> (1-p') rho + p' Tr_q(rho) (x) I/2
  /// with p' = 4p/3.
  void depolarize(Index q, Real p);

  /// Trace (should stay 1 under channels).
  [[nodiscard]] Real trace() const;

  /// Purity Tr(rho^2) — 1 for pure states, 1/2^n for maximally mixed.
  [[nodiscard]] Real purity() const;

  /// Diagonal Born probabilities.
  [[nodiscard]] std::vector<Real> probabilities() const;

  /// <Z_q>.
  [[nodiscard]] Real expect_z(Index q) const;

 private:
  Index num_qubits_;
  Index dim_;
  std::vector<Complex> rho_;  // row-major dim x dim
};

/// Run a circuit on the density matrix, applying the exact depolarizing
/// channel with probability `depolarizing_prob` to every touched qubit
/// after each gate (mirrors run_circuit_noisy's insertion points).
void run_circuit_density(const Circuit& circuit, std::span<const Real> params,
                         DensityMatrix& rho, Real depolarizing_prob = 0);

/// Full NoiseModel variant: the named gate channel (depolarizing via the
/// in-place fast path, damping channels via apply_kraus) after every gate
/// touch — the same insertion points run_circuit_noisy samples — and the
/// readout bit-flip channel on every qubit at the end. The post-run
/// density therefore folds measurement error into the state exactly, which
/// is equivalent for every diagonal observable (probabilities, <Z>).
void run_circuit_density(const Circuit& circuit, std::span<const Real> params,
                         DensityMatrix& rho, const NoiseModel& noise);

}  // namespace qugeo::qsim
