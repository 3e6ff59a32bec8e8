#include "qsim/backend.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/env.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "qsim/executor.h"
#include "qsim/shots.h"

namespace qugeo::qsim {

std::string_view backend_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kStatevector: return "statevector";
    case BackendKind::kDensityMatrix: return "density";
    case BackendKind::kTrajectory: return "trajectory";
    case BackendKind::kShot: return "shot";
  }
  return "?";
}

std::optional<BackendKind> parse_backend_kind(std::string_view name) noexcept {
  if (name == "statevector" || name == "sv") return BackendKind::kStatevector;
  if (name == "density" || name == "density_matrix")
    return BackendKind::kDensityMatrix;
  if (name == "trajectory" || name == "trajectories")
    return BackendKind::kTrajectory;
  if (name == "shot" || name == "shots") return BackendKind::kShot;
  return std::nullopt;
}

ExecutionConfig apply_env_overrides(ExecutionConfig base) {
  if (const char* kind = std::getenv("QUGEO_BACKEND")) {
    const auto parsed = parse_backend_kind(kind);
    if (!parsed)
      throw std::invalid_argument(std::string("QUGEO_BACKEND: unknown backend '") +
                                  kind + "'");
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

// ------------------------------------------------------ StatevectorBackend --

// The statevector backend is exact and noiseless; a NoiseModel in the
// config is an ablation parameter for the other backends, not an error.
StatevectorBackend::StatevectorBackend(const ExecutionConfig& /*config*/)
    : psi_(0) {}

Index StatevectorBackend::num_qubits() const noexcept {
  return psi_.num_qubits();
}

void StatevectorBackend::prepare(Index num_qubits) {
  fault::site("backend.prepare");
  psi_ = StateVector(num_qubits);
}

void StatevectorBackend::run(const Circuit& circuit,
                             std::span<const Real> params,
                             StateVector initial_state) {
  fault::site("backend.run");
  psi_ = std::move(initial_state);
  run_circuit(circuit, params, psi_);
}

std::vector<Real> StatevectorBackend::probabilities() const {
  return psi_.probabilities();
}

std::vector<Real> StatevectorBackend::expect_z(
    std::span<const Index> qubits) const {
  std::vector<Real> z(qubits.size());
  for (std::size_t i = 0; i < qubits.size(); ++i) z[i] = psi_.expect_z(qubits[i]);
  return z;
}

// ---------------------------------------------------- DensityMatrixBackend --

DensityMatrixBackend::DensityMatrixBackend(const ExecutionConfig& config)
    : noise_(config.noise) {}

Index DensityMatrixBackend::num_qubits() const noexcept {
  return rho_ ? rho_->num_qubits() : 0;
}

void DensityMatrixBackend::prepare(Index num_qubits) {
  fault::site("backend.prepare");
  if (rho_ && rho_->num_qubits() == num_qubits)
    rho_->reset();
  else
    rho_.emplace(num_qubits);
}

void DensityMatrixBackend::run(const Circuit& circuit,
                               std::span<const Real> params,
                               StateVector initial_state) {
  fault::site("backend.run");
  if (!rho_ || rho_->num_qubits() != initial_state.num_qubits())
    rho_.emplace(initial_state.num_qubits());
  rho_->set_from_state(initial_state);
  run_circuit_density(circuit, params, *rho_, noise_);
}

std::vector<Real> DensityMatrixBackend::probabilities() const {
  return density().probabilities();
}

std::vector<Real> DensityMatrixBackend::expect_z(
    std::span<const Index> qubits) const {
  const DensityMatrix& rho = density();
  std::vector<Real> z(qubits.size());
  for (std::size_t i = 0; i < qubits.size(); ++i) z[i] = rho.expect_z(qubits[i]);
  return z;
}

const DensityMatrix& DensityMatrixBackend::density() const {
  if (!rho_)
    throw std::logic_error("DensityMatrixBackend: no state (call prepare/run)");
  return *rho_;
}

// ------------------------------------------------------- TrajectoryBackend --

TrajectoryBackend::TrajectoryBackend(const ExecutionConfig& config)
    : noise_(config.noise),
      trajectories_(config.trajectories == 0 ? 1 : config.trajectories),
      seed_(config.seed) {}

Index TrajectoryBackend::num_qubits() const noexcept { return num_qubits_; }

void TrajectoryBackend::prepare(Index num_qubits) {
  fault::site("backend.prepare");
  num_qubits_ = num_qubits;
  mean_probs_.assign(Index{1} << num_qubits, Real(0));
  mean_probs_[0] = Real(1);
}

void TrajectoryBackend::run(const Circuit& circuit,
                            std::span<const Real> params,
                            StateVector initial_state) {
  fault::site("backend.run");
  num_qubits_ = initial_state.num_qubits();
  const Index dim = initial_state.dim();

  // A trivial NoiseModel makes every trajectory identical to the exact
  // run; skip the fan-out entirely (env-driven smoke runs pay one
  // statevector pass).
  if (noise_.is_trivial()) {
    StateVector psi = std::move(initial_state);
    run_circuit(circuit, params, psi);
    mean_probs_ = psi.probabilities();
    return;
  }
  if (trajectories_ == 1) {
    StateVector psi = std::move(initial_state);
    Rng rng = trajectory_rng(seed_, 0);
    run_circuit_noisy(circuit, params, psi, noise_, rng);
    mean_probs_ = psi.probabilities();
    return;
  }

  // Trajectory fan-out over the shared pool. A fixed number of accumulation
  // slots (independent of the thread count) each sum a strided subset of
  // trajectories sequentially; the slots fold in index order afterwards, so
  // the average is bit-identical for any QUGEO_THREADS value while keeping
  // memory at O(slots * 2^n) instead of O(trajectories * 2^n).
  const std::size_t slots = std::min<std::size_t>(trajectories_, 32);
  std::vector<std::vector<Real>> partial(slots);
  parallel_for(0, slots, [&](std::size_t s) {
    std::vector<Real> acc(dim, Real(0));
    for (std::size_t t = s; t < trajectories_; t += slots) {
      StateVector psi = initial_state;
      Rng rng = trajectory_rng(seed_, t);
      run_circuit_noisy(circuit, params, psi, noise_, rng);
      const auto amps = psi.amplitudes();
      for (Index k = 0; k < dim; ++k) acc[k] += std::norm(amps[k]);
    }
    partial[s] = std::move(acc);
  });

  mean_probs_.assign(dim, Real(0));
  for (std::size_t s = 0; s < slots; ++s)
    for (Index k = 0; k < dim; ++k) mean_probs_[k] += partial[s][k];
  const Real inv = Real(1) / static_cast<Real>(trajectories_);
  for (Real& p : mean_probs_) p *= inv;
}

std::vector<Real> TrajectoryBackend::probabilities() const {
  return mean_probs_;
}

std::vector<Real> TrajectoryBackend::expect_z(
    std::span<const Index> qubits) const {
  return expect_z_from_probabilities(mean_probs_, qubits);
}

// ------------------------------------------------------------- ShotBackend --

ShotBackend::ShotBackend(const ExecutionConfig& config,
                         std::unique_ptr<Backend> inner)
    : inner_(std::move(inner)),
      shots_(config.shots),
      readout_error_(config.noise.readout_error),
      seed_(config.seed) {
  if (!inner_)
    throw std::invalid_argument("ShotBackend: null inner backend");
  if (inner_->kind() == BackendKind::kShot)
    throw std::invalid_argument("ShotBackend: cannot wrap another ShotBackend");
}

Index ShotBackend::num_qubits() const noexcept { return inner_->num_qubits(); }

void ShotBackend::prepare(Index num_qubits) { inner_->prepare(num_qubits); }

void ShotBackend::run(const Circuit& circuit, std::span<const Real> params,
                      StateVector initial_state) {
  inner_->run(circuit, params, std::move(initial_state));
}

std::vector<Real> ShotBackend::probabilities() const {
  std::vector<Real> exact = inner_->probabilities();
  if (shots_ == 0) {
    // Exact pass-through — but the wrapper still owns the readout error
    // (make_backend cleared it on the inner config), so realize it as the
    // exact confusion matrix: the infinite-shot limit of the sampled
    // flips. With no readout error this returns the inner output bitwise.
    apply_readout_to_probabilities(exact, inner_->num_qubits(), readout_error_);
    return exact;
  }
  // Prefix sums in index order — the same accumulation
  // StateVector::cumulative_probabilities performs, so the sampled CDF
  // matches the statevector's bitwise.
  Real acc = 0;
  for (Real& p : exact) {
    acc += p;
    p = acc;
  }
  return sampled_probabilities_from_cdf(exact, inner_->num_qubits(), seed_,
                                        shots_, readout_error_);
}

std::vector<Real> ShotBackend::expect_z(std::span<const Index> qubits) const {
  if (shots_ == 0 && readout_error_ <= 0) return inner_->expect_z(qubits);
  return expect_z_from_probabilities(probabilities(), qubits);
}

// ----------------------------------------------------------------- factory --

std::unique_ptr<Backend> make_backend(const ExecutionConfig& config,
                                      Index num_qubits) {
  // A shot budget (or an explicit "shot" backend request) wraps the
  // configured engine. The wrapper owns the readout error — it flips the
  // sampled outcomes — so the inner engine runs with it cleared to keep
  // exactly one realization of the channel.
  const bool wrap = config.shots > 0 || config.backend == BackendKind::kShot;
  ExecutionConfig inner_cfg = config;
  if (wrap) {
    inner_cfg.backend = config.backend == BackendKind::kShot
                            ? BackendKind::kStatevector
                            : config.backend;
    inner_cfg.shots = 0;
    inner_cfg.noise.readout_error = 0;
  }

  std::unique_ptr<Backend> inner;
  switch (inner_cfg.backend) {
    case BackendKind::kStatevector:
      inner = std::make_unique<StatevectorBackend>(inner_cfg);
      break;
    case BackendKind::kDensityMatrix:
      if (num_qubits > max_density_qubits()) {
        if (inner_cfg.noise.is_trivial()) {
          // Exact substitution: a trivial channel degenerates to unitary
          // evolution, which the statevector computes at O(2^n).
          fault::report_degradation(
              "backend", "density-matrix request for " +
                             std::to_string(num_qubits) + " qubits exceeds " +
                             std::to_string(max_density_qubits()) +
                             "; substituting the exact statevector engine "
                             "(noise channel is trivial)");
          inner = std::make_unique<StatevectorBackend>(inner_cfg);
          break;
        }
        // Name the active channel: a statevector substitution would
        // silently drop it, and each channel fails differently.
        std::string channels;
        if (inner_cfg.noise.has_gate_noise())
          channels = std::string(noise_channel_name(inner_cfg.noise.channel));
        if (inner_cfg.noise.has_readout_error())
          channels += channels.empty() ? "readout" : "+readout";
        throw std::invalid_argument(
            "make_backend: density-matrix backend supports at most " +
            std::to_string(max_density_qubits()) + " qubits (requested " +
            std::to_string(num_qubits) + " with " + channels +
            " noise enabled; the statevector substitution cannot realize "
            "this channel exactly)");
      }
      inner = std::make_unique<DensityMatrixBackend>(inner_cfg);
      break;
    case BackendKind::kTrajectory:
      inner = std::make_unique<TrajectoryBackend>(inner_cfg);
      break;
    case BackendKind::kShot:
      throw std::logic_error("make_backend: kShot cannot be an inner kind");
  }
  if (!inner) throw std::invalid_argument("make_backend: unknown backend kind");
  if (wrap) return std::make_unique<ShotBackend>(config, std::move(inner));
  return inner;
}

}  // namespace qugeo::qsim
