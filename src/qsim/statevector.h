// Dense complex state-vector with in-place gate application.
//
// Qubit 0 is the least-significant bit of the basis index. All operations
// are exact (double precision); the class is the execution substrate for
// both the forward pass and the adjoint backward pass.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "qsim/gate.h"

namespace qugeo::qsim {

class StateVector {
 public:
  /// Construct |0...0> on `num_qubits` qubits.
  explicit StateVector(Index num_qubits);

  [[nodiscard]] Index num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] Index dim() const noexcept { return amps_.size(); }
  [[nodiscard]] std::span<const Complex> amplitudes() const noexcept { return amps_; }
  [[nodiscard]] std::span<Complex> amplitudes_mut() noexcept { return amps_; }
  [[nodiscard]] Complex amplitude(Index k) const { return amps_.at(k); }

  /// Reset to |0...0>.
  void reset();

  /// Overwrite amplitudes from a complex span (must have length dim()).
  void set_amplitudes(std::span<const Complex> amps);

  /// Overwrite amplitudes from a real span (imag parts zero).
  void set_amplitudes_real(std::span<const Real> amps);

  /// Squared norm <psi|psi>.
  [[nodiscard]] Real norm_sq() const noexcept;

  /// Apply a 2x2 unitary (or any 2x2 linear map) to qubit `q`.
  void apply_1q(const Mat2& u, Index q);

  /// Fast path: apply diag(d0, d1) to qubit `q` (phase-only, no cross
  /// terms). When d0 == 1 only the q=|1> half-space is touched.
  void apply_diag_1q(Complex d0, Complex d1, Index q);

  /// Fast path: apply [[0, a01], [a10, 0]] to qubit `q` (pure amplitude
  /// swap; a01 == a10 == 1 degenerates to std::swap per pair, i.e. X).
  void apply_antidiag_1q(Complex a01, Complex a10, Index q);

  /// Apply a 2x2 map to `target` on the control=|1> subspace only.
  void apply_controlled_1q(const Mat2& u, Index control, Index target);

  /// Fast path: controlled diag(d0, d1). When d0 == 1 (Z, S, T, phase)
  /// only the control=target=|1> quarter-space is touched — CZ costs one
  /// multiply per 4 amplitudes.
  void apply_controlled_diag_1q(Complex d0, Complex d1, Index control,
                                Index target);

  /// Fast path: controlled [[0, a01], [a10, 0]] (CX when both are 1).
  void apply_controlled_antidiag_1q(Complex a01, Complex a10, Index control,
                                    Index target);

  /// Swap qubits a and b.
  void apply_swap(Index a, Index b);

  /// Probability of measuring basis state k.
  [[nodiscard]] Real probability(Index k) const { return std::norm(amps_.at(k)); }

  /// Full probability vector (length dim()).
  [[nodiscard]] std::vector<Real> probabilities() const;

  /// Marginal probability distribution over an ordered subset of qubits.
  /// Entry j of the result is P(outcome j), where bit i of j is the
  /// measured value of qubits[i].
  [[nodiscard]] std::vector<Real> marginal_probabilities(
      std::span<const Index> qubits) const;

  /// <Z_q> expectation.
  [[nodiscard]] Real expect_z(Index q) const;

  /// Cumulative Born distribution: cdf[k] = sum_{j<=k} |amps[j]|^2. The
  /// last entry is the squared norm. Building it is O(2^n); callers that
  /// sample the same state repeatedly should build it once and use
  /// sample_from_cdf.
  [[nodiscard]] std::vector<Real> cumulative_probabilities() const;

  /// Draw `shots` basis-state samples from the Born distribution.
  [[nodiscard]] std::vector<Index> sample(Rng& rng, std::size_t shots) const;

  /// Draw `shots` samples against a precomputed CDF (see
  /// cumulative_probabilities) without rebuilding the O(2^n) prefix sums.
  [[nodiscard]] static std::vector<Index> sample_from_cdf(
      std::span<const Real> cdf, Rng& rng, std::size_t shots);

  /// Fidelity |<this|other>|^2 (states must have equal dimension).
  [[nodiscard]] Real fidelity(const StateVector& other) const;

 private:
  Index num_qubits_;
  std::vector<Complex> amps_;
};

}  // namespace qugeo::qsim
