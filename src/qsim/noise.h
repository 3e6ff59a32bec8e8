// Hardware-realistic noise channels and their trajectory sampling.
//
// The paper targets NISQ hardware but evaluates on a noiseless simulator;
// this module is the stochastic half of the noisy-execution story (the
// exact half lives in density_matrix.h). A NoiseModel names one per-gate
// channel — depolarizing, amplitude damping, or phase damping — applied to
// every qubit a gate touches, plus an independent per-qubit readout
// (measurement bit-flip) error applied once at the end of the circuit.
// Every channel is defined by its Kraus set (kraus_ops / readout_kraus),
// which the density-matrix backend applies exactly and the trajectory
// executor samples: mixed-unitary channels (depolarizing, readout) insert
// random Paulis, general channels (damping) take Kraus jumps with the Born
// weights ||K_k psi||^2 followed by renormalization — an unbiased estimator
// of the exact channel in both cases.
//
// Reproducibility contract: every trajectory draws from its own RNG
// sub-stream derived from (seed, trajectory index), so averaged results
// are bit-identical for any thread count and any trajectory scheduling.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "qsim/circuit.h"
#include "qsim/executor.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {

/// Per-gate channel kinds a NoiseModel can name.
enum class NoiseChannel : std::uint8_t {
  kDepolarizing,      ///< X/Y/Z each with probability p/3
  kAmplitudeDamping,  ///< T1 decay: |1> relaxes to |0> with probability p
  kPhaseDamping,      ///< T2 dephasing: coherences shrink by sqrt(1-p)
};

/// "depolarizing" | "amplitude_damping" | "phase_damping".
[[nodiscard]] std::string_view noise_channel_name(NoiseChannel channel) noexcept;

/// Inverse of noise_channel_name (also accepts the "amp"/"phase"
/// shorthands); nullopt on unknown names.
[[nodiscard]] std::optional<NoiseChannel> parse_noise_channel(
    std::string_view name) noexcept;

struct NoiseModel {
  /// Strength of the per-gate channel, applied to every qubit a gate
  /// touches (error probability p for depolarizing, decay probability
  /// gamma for the damping channels). 0 disables gate noise.
  Real gate_error_prob = 0.0;
  /// Which channel gate_error_prob parameterizes.
  NoiseChannel channel = NoiseChannel::kDepolarizing;
  /// Per-qubit measurement bit-flip probability, applied once at readout
  /// (exactly on the density matrix, sampled per trajectory / per shot).
  Real readout_error = 0.0;

  [[nodiscard]] bool has_gate_noise() const noexcept {
    return gate_error_prob > 0;
  }
  [[nodiscard]] bool has_readout_error() const noexcept {
    return readout_error > 0;
  }
  /// True when the model is a no-op (exact unitary evolution).
  [[nodiscard]] bool is_trivial() const noexcept {
    return !has_gate_noise() && !has_readout_error();
  }
};

/// Kraus operators of the named single-qubit channel at strength p. Every
/// returned set satisfies sum_k K_k^+ K_k = I (CPTP; pinned to 1e-12 by
/// test_qsim_channels).
[[nodiscard]] std::vector<Mat2> kraus_ops(NoiseChannel channel, Real p);

/// Kraus operators of the readout bit-flip channel:
/// {sqrt(1-e) I, sqrt(e) X}.
[[nodiscard]] std::vector<Mat2> readout_kraus(Real e);

/// Independent RNG sub-stream for one trajectory: mixes the base seed with
/// the trajectory index (splitmix64 expansion inside Rng decorrelates the
/// nearby seeds). Trajectory t always sees the same stream, no matter which
/// thread runs it or how many trajectories run beside it.
[[nodiscard]] Rng trajectory_rng(std::uint64_t seed, std::size_t trajectory);

/// Run one noisy trajectory of the circuit on `psi` (in place) from its
/// binding: after every gate touch, the gate channel (mixed-unitary
/// channels insert a random Pauli, general channels take a Kraus jump K_k
/// with probability ||K_k psi||^2 and renormalize); once at the end, the
/// readout bit-flip (X with probability e per qubit). The trajectory
/// backend of run_probabilities (backend.h) averages these runs. Throws
/// std::invalid_argument when `psi` and the circuit differ in width.
void run_circuit_noisy(const Circuit& circuit, const Binding& binding,
                       StateVector& psi, const NoiseModel& noise, Rng& rng);

/// Bind, then run_circuit_noisy.
void run_circuit_noisy(const Circuit& circuit, std::span<const Real> params,
                       StateVector& psi, const NoiseModel& noise, Rng& rng);

}  // namespace qugeo::qsim
