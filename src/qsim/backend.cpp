#include "qsim/backend.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/env.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "qsim/density_matrix.h"
#include "qsim/executor.h"
#include "qsim/shots.h"

namespace qugeo::qsim {

std::string_view backend_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kStatevector: return "statevector";
    case BackendKind::kDensityMatrix: return "density";
    case BackendKind::kTrajectory: return "trajectory";
  }
  return "?";
}

std::optional<BackendKind> parse_backend_kind(std::string_view name) noexcept {
  if (name == "statevector") return BackendKind::kStatevector;
  if (name == "density") return BackendKind::kDensityMatrix;
  if (name == "trajectory") return BackendKind::kTrajectory;
  return std::nullopt;
}

ExecutionConfig apply_env_overrides(ExecutionConfig base) {
  if (const char* kind = std::getenv("QUGEO_BACKEND")) {
    const auto parsed = parse_backend_kind(kind);
    if (!parsed)
      throw std::invalid_argument(
          std::string("QUGEO_BACKEND: unknown backend '") + kind +
          "' (expected statevector | density | trajectory)");
    base.backend = *parsed;
  }
  base.noise.gate_error_prob =
      env::parse_env_probability("QUGEO_NOISE_P", base.noise.gate_error_prob);
  if (const char* ch = std::getenv("QUGEO_NOISE_CHANNEL")) {
    const auto parsed = parse_noise_channel(ch);
    if (!parsed)
      throw std::invalid_argument(
          std::string("QUGEO_NOISE_CHANNEL: unknown channel '") + ch + "'");
    base.noise.channel = *parsed;
  }
  base.noise.readout_error =
      env::parse_env_probability("QUGEO_READOUT_P", base.noise.readout_error);
  base.trajectories =
      env::parse_env_positive("QUGEO_TRAJECTORIES", base.trajectories);
  base.shots = env::parse_env_size_t("QUGEO_SHOTS", base.shots);
  // QUGEO_SIMD is read by the process-wide dispatcher, which treats unknown
  // text as "auto"; parse it strictly here so a typo fails loudly.
  static_cast<void>(simd::simd_mode_from_env(simd::SimdMode::kAuto));
  return base;
}

namespace {

std::vector<Real> run_statevector(const Circuit& circuit,
                                  const Binding& binding, StateVector psi) {
  run_circuit(circuit, binding, psi);
  return psi.probabilities();
}

std::vector<Real> run_density(const Circuit& circuit, const Binding& binding,
                              const StateVector& initial_state,
                              const NoiseModel& noise) {
  DensityMatrix rho(initial_state.num_qubits());
  rho.set_from_state(initial_state);
  run_circuit_density(circuit, binding, rho, noise);
  return rho.probabilities();
}

std::vector<Real> run_trajectories(const Circuit& circuit,
                                   const Binding& binding,
                                   StateVector initial_state,
                                   const NoiseModel& noise,
                                   std::size_t trajectories,
                                   std::uint64_t seed) {
  // A trivial NoiseModel makes every trajectory identical to the exact
  // run; skip the fan-out entirely (env-driven smoke runs pay one
  // statevector pass).
  if (noise.is_trivial())
    return run_statevector(circuit, binding, std::move(initial_state));

  // Trajectory fan-out over the shared pool. A fixed number of accumulation
  // slots (independent of the thread count) each sum a strided subset of
  // trajectories sequentially; the slots fold in index order afterwards, so
  // the average is bit-identical for any QUGEO_THREADS value while keeping
  // memory at O(slots * 2^n) instead of O(trajectories * 2^n).
  const Index dim = initial_state.dim();
  const std::size_t slots = std::min<std::size_t>(trajectories, 32);
  std::vector<std::vector<Real>> partial(slots);
  parallel_for(0, slots, [&](std::size_t s) {
    std::vector<Real> acc(dim, Real(0));
    for (std::size_t t = s; t < trajectories; t += slots) {
      StateVector psi = initial_state;
      Rng rng = trajectory_rng(seed, t);
      run_circuit_noisy(circuit, binding, psi, noise, rng);
      const auto amps = psi.amplitudes();
      for (Index k = 0; k < dim; ++k) acc[k] += std::norm(amps[k]);
    }
    partial[s] = std::move(acc);
  });

  std::vector<Real> mean(dim, Real(0));
  for (std::size_t s = 0; s < slots; ++s)
    for (Index k = 0; k < dim; ++k) mean[k] += partial[s][k];
  const Real inv = Real(1) / static_cast<Real>(trajectories);
  for (Real& p : mean) p *= inv;
  return mean;
}

}  // namespace

std::vector<Real> run_probabilities(const ExecutionConfig& config,
                                    const Circuit& circuit,
                                    std::span<const Real> params,
                                    StateVector initial_state) {
  return run_probabilities(config, circuit, Binding(circuit, params),
                           std::move(initial_state));
}

std::vector<Real> run_probabilities(const ExecutionConfig& config,
                                    const Circuit& circuit,
                                    const Binding& binding,
                                    StateVector initial_state) {
  const Index num_qubits = initial_state.num_qubits();
  if (num_qubits != circuit.num_qubits())
    throw std::invalid_argument(
        "run_probabilities: qubit count mismatch (state has " +
        std::to_string(num_qubits) + ", circuit " +
        std::to_string(circuit.num_qubits()) + ")");
  // The readout stage owns the readout error — it flips the sampled
  // outcomes — so the engine runs with it cleared to keep exactly one
  // realization of the channel.
  const bool readout_stage = config.shots > 0;
  NoiseModel noise = config.noise;
  if (readout_stage) noise.readout_error = 0;

  BackendKind engine = config.backend;
  if (engine == BackendKind::kDensityMatrix &&
      num_qubits > max_density_qubits()) {
    if (!noise.is_trivial()) {
      // Name the active channel: a statevector substitution would
      // silently drop it, and each channel fails differently.
      std::string channels;
      if (noise.has_gate_noise())
        channels = std::string(noise_channel_name(noise.channel));
      if (noise.has_readout_error())
        channels += channels.empty() ? "readout" : "+readout";
      throw std::invalid_argument(
          "run_probabilities: density-matrix backend supports at most " +
          std::to_string(max_density_qubits()) + " qubits (requested " +
          std::to_string(num_qubits) + " with " + channels +
          " noise enabled; the statevector substitution cannot realize "
          "this channel exactly)");
    }
    // Exact substitution: a trivial channel degenerates to unitary
    // evolution, which the statevector computes at O(2^n).
    fault::report_degradation(
        "backend", "density-matrix request for " + std::to_string(num_qubits) +
                       " qubits exceeds " +
                       std::to_string(max_density_qubits()) +
                       "; substituting the exact statevector engine "
                       "(noise channel is trivial)");
    engine = BackendKind::kStatevector;
  }

  fault::site("backend.run");
  std::vector<Real> probs;
  switch (engine) {
    case BackendKind::kStatevector:
      probs = run_statevector(circuit, binding, std::move(initial_state));
      break;
    case BackendKind::kDensityMatrix:
      probs = run_density(circuit, binding, initial_state, noise);
      break;
    case BackendKind::kTrajectory:
      probs = run_trajectories(circuit, binding, std::move(initial_state),
                               noise,
                               std::max<std::size_t>(config.trajectories, 1),
                               config.seed);
      break;
  }
  if (probs.empty())
    throw std::invalid_argument("run_probabilities: unknown backend kind");
  if (!readout_stage) return probs;

  // Prefix sums in index order: the CDF the shot sampler inverts.
  Real acc = 0;
  for (Real& p : probs) {
    acc += p;
    p = acc;
  }
  return sampled_probabilities_from_cdf(probs, num_qubits, config.seed,
                                        config.shots,
                                        config.noise.readout_error);
}

}  // namespace qugeo::qsim
