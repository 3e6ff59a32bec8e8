// Simulation backends: one function, run_probabilities, over exact
// statevector execution, exact density-matrix (channel) execution, sampled
// noisy-trajectory execution, and a finite-shot readout stage after any of
// the three when a shot budget is set.
//
// The core layer (QuGeoModel, Experiment, benches) selects a backend purely
// through ExecutionConfig — no call-site special-casing — so the same
// pipeline runs noiselessly, with exact NoiseModel channels, with sampled
// trajectories, or from a finite measurement budget (shots). Training
// gradients do not come through here: they run the statevector and the
// adjoint sweep directly (qsim/executor.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/cpu_features.h"
#include "qsim/circuit.h"
#include "qsim/executor.h"
#include "qsim/noise.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {

enum class BackendKind : std::uint8_t {
  kStatevector,    ///< exact pure-state simulation
  kDensityMatrix,  ///< exact mixed-state simulation with exact channels
  kTrajectory,     ///< noise-trajectory sampling over the thread pool
};

/// "statevector" | "density" | "trajectory".
[[nodiscard]] std::string_view backend_name(BackendKind kind) noexcept;

/// Inverse of backend_name: accepts exactly the names it prints; nullopt
/// on any other text.
[[nodiscard]] std::optional<BackendKind> parse_backend_kind(
    std::string_view name) noexcept;

/// Everything the core layer needs to pick and parameterize a backend.
/// The default (noiseless statevector) reproduces the pre-backend pipeline
/// bit-identically.
struct ExecutionConfig {
  BackendKind backend = BackendKind::kStatevector;
  NoiseModel noise;                ///< ignored by the statevector backend
  std::size_t trajectories = 64;   ///< trajectory backend sample count
  /// Measurement budget of the sampled readout: 0 reads exact
  /// probabilities; any positive value makes run_probabilities estimate
  /// them from this many shots of the configured engine's output.
  std::size_t shots = 0;
  /// Base seed for trajectory/shot streams. qugeo-lint: no-env(QUGEO_SEED
  /// seeds the data-corpus RNG; execution seeds are salted per chunk by
  /// QuGeoModel, so an env override here would correlate every chunk).
  std::uint64_t seed = 0x51d5eedULL;
  /// Not a knob: every engine executes one state at a time. The constant
  /// exists only for the `"batch"` entry of perfbench's run metadata.
  /// qugeo-lint: no-env(a compile-time constant, not a setting).
  static constexpr std::size_t batch = 1;
  /// Not a knob: no path fuses gates; every engine and the training path
  /// run the circuit as built. `fusion` and `grad_fusion` exist only for
  /// the `"fusion"` / `"grad_fusion"` entries of perfbench's run metadata
  /// (perfbench/main.cpp:134-135), like `batch`.
  /// qugeo-lint: no-env(a compile-time constant, not a setting).
  static constexpr bool fusion = false;
  /// qugeo-lint: no-env(a compile-time constant, not a setting).
  static constexpr bool grad_fusion = false;
  /// Not a knob: kernels dispatch on the process-wide level
  /// (common/cpu_features.h, QUGEO_SIMD). Exists only for perfbench's run
  /// metadata.
  /// qugeo-lint: no-env(a compile-time constant, not a setting).
  static constexpr simd::SimdMode simd = simd::SimdMode::kAuto;
};

/// Environment overrides for smoke runs and CI: QUGEO_BACKEND
/// ("statevector" | "density" | "trajectory"), QUGEO_NOISE_P
/// (real), QUGEO_NOISE_CHANNEL ("depolarizing" | "amplitude_damping" |
/// "phase_damping"), QUGEO_READOUT_P (real), QUGEO_TRAJECTORIES (integer),
/// QUGEO_SHOTS (integer, 0 = exact). Unset variables leave `base`
/// untouched. QUGEO_SIMD sets the process-wide kernel level, not a config
/// field, but a malformed value still throws here. The full reference table
/// lives in docs/ARCHITECTURE.md.
[[nodiscard]] ExecutionConfig apply_env_overrides(ExecutionConfig base);

/// \brief Execute `circuit` from `initial_state` (the encoder's output) on
/// the engine `config.backend` names and return the Born probabilities of
/// the result. Every engine runs the circuit as built, op for op; a gate
/// channel inserts its noise after every op.
///
/// - statevector: exact pure-state evolution. The NoiseModel is ignored
///   (an ablation parameter of the other engines, not an error).
/// - density: exact mixed-state evolution with every NoiseModel channel
///   (readout included) applied through its Kraus set. Above
///   max_density_qubits() a trivial NoiseModel runs the statevector
///   instead, which is exact for unitary evolution, and records a
///   `backend` degradation event; any active channel throws
///   std::invalid_argument naming it.
/// - trajectory: the average of `config.trajectories` noisy runs (0 reads
///   as 1), an unbiased estimate of the channel's diagonal, fanned out
///   over the thread pool and bit-identical for any QUGEO_THREADS value.
///   A trivial NoiseModel runs once, exactly.
///
/// A readout stage follows when `config.shots > 0`. It owns the readout
/// error (the engine runs with it cleared, so the channel is realized
/// once) and estimates the probabilities from `shots` basis-state samples
/// with the readout error flipping the sampled outcomes (qsim/shots.h).
/// `config.seed` seeds the trajectory and shot streams.
///
/// Every engine runs from `binding` (qsim/executor.h): the trajectory
/// engine's runs all share it. An `initial_state` whose width differs from
/// the circuit's throws std::invalid_argument before any engine runs.
[[nodiscard]] std::vector<Real> run_probabilities(const ExecutionConfig& config,
                                                  const Circuit& circuit,
                                                  const Binding& binding,
                                                  StateVector initial_state);

/// Bind, then run_probabilities.
[[nodiscard]] std::vector<Real> run_probabilities(const ExecutionConfig& config,
                                                  const Circuit& circuit,
                                                  std::span<const Real> params,
                                                  StateVector initial_state);

}  // namespace qugeo::qsim
