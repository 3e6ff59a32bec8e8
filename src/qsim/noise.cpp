#include "qsim/noise.h"

#include <cmath>
#include <stdexcept>

#include "qsim/executor.h"

namespace qugeo::qsim {
namespace {

const Mat2 kPauliX{{Complex{0, 0}, Complex{1, 0}, Complex{1, 0}, Complex{0, 0}}};
const Mat2 kPauliY{{Complex{0, 0}, Complex{0, -1}, Complex{0, 1}, Complex{0, 0}}};
const Mat2 kPauliZ{{Complex{1, 0}, Complex{0, 0}, Complex{0, 0}, Complex{-1, 0}}};

void maybe_depolarize(StateVector& psi, Index q, Real p, Rng& rng) {
  if (!rng.bernoulli(p)) return;
  switch (rng.uniform_int(0, 2)) {
    case 0: psi.apply_1q(kPauliX, q); break;
    case 1: psi.apply_1q(kPauliY, q); break;
    default: psi.apply_1q(kPauliZ, q); break;
  }
}

/// ||K psi||^2 restricted to the 2x2 blocks qubit q couples.
Real kraus_weight(const StateVector& psi, const Mat2& k, Index q) {
  const auto amps = psi.amplitudes();
  const Index stride = Index{1} << q;
  const Index dim = psi.dim();
  Real w = 0;
  for (Index base = 0; base < dim; base += 2 * stride) {
    for (Index off = 0; off < stride; ++off) {
      const Index i0 = base + off, i1 = i0 + stride;
      w += std::norm(k(0, 0) * amps[i0] + k(0, 1) * amps[i1]) +
           std::norm(k(1, 0) * amps[i0] + k(1, 1) * amps[i1]);
    }
  }
  return w;
}

/// Sample the readout bit-flip error on every qubit of `psi` (X with
/// probability e per qubit). Called at the end of each noisy trajectory.
void apply_readout_trajectory(StateVector& psi, Real e, Rng& rng) {
  if (e <= 0) return;
  for (Index q = 0; q < psi.num_qubits(); ++q)
    if (rng.bernoulli(e)) psi.apply_1q(kPauliX, q);
}

void scale_state(StateVector& psi, Real factor) {
  for (Complex& a : psi.amplitudes_mut()) a *= factor;
}

/// Generalized Kraus jump (Monte Carlo wavefunction) over a precomputed
/// CPTP set: pick K_k with the Born weight ||K_k psi||^2 (the weights sum
/// to ||psi||^2), apply it, renormalize.
void kraus_jump(StateVector& psi, std::span<const Mat2> kraus, Index q,
                Rng& rng) {
  const Real u = rng.uniform() * psi.norm_sq();
  Real acc = 0;
  std::size_t pick = kraus.size() - 1;
  for (std::size_t k = 0; k + 1 < kraus.size(); ++k) {
    acc += kraus_weight(psi, kraus[k], q);
    if (u < acc) {
      pick = k;
      break;
    }
  }
  psi.apply_1q(kraus[pick], q);
  const Real w = psi.norm_sq();
  if (w > 0) scale_state(psi, Real(1) / std::sqrt(w));
}

}  // namespace

std::string_view noise_channel_name(NoiseChannel channel) noexcept {
  switch (channel) {
    case NoiseChannel::kDepolarizing: return "depolarizing";
    case NoiseChannel::kAmplitudeDamping: return "amplitude_damping";
    case NoiseChannel::kPhaseDamping: return "phase_damping";
  }
  return "?";
}

std::optional<NoiseChannel> parse_noise_channel(std::string_view name) noexcept {
  if (name == "depolarizing" || name == "depol")
    return NoiseChannel::kDepolarizing;
  if (name == "amplitude_damping" || name == "amp")
    return NoiseChannel::kAmplitudeDamping;
  if (name == "phase_damping" || name == "phase")
    return NoiseChannel::kPhaseDamping;
  return std::nullopt;
}

std::vector<Mat2> kraus_ops(NoiseChannel channel, Real p) {
  if (p < 0 || p > 1)
    throw std::invalid_argument("kraus_ops: strength must be in [0, 1]");
  const Real keep = std::sqrt(1 - p);
  switch (channel) {
    case NoiseChannel::kDepolarizing: {
      const Real s = std::sqrt(p / 3);
      std::vector<Mat2> ks(4);
      ks[0] = Mat2{{Complex{keep, 0}, Complex{0, 0}, Complex{0, 0}, Complex{keep, 0}}};
      for (int i = 0; i < 3; ++i) {
        const Mat2& pauli = i == 0 ? kPauliX : (i == 1 ? kPauliY : kPauliZ);
        for (int e = 0; e < 4; ++e) ks[1 + i].m[static_cast<std::size_t>(e)] = s * pauli.m[static_cast<std::size_t>(e)];
      }
      return ks;
    }
    case NoiseChannel::kAmplitudeDamping:
      // K0 = diag(1, sqrt(1-g)); K1 = sqrt(g) |0><1|.
      return {Mat2{{Complex{1, 0}, Complex{0, 0}, Complex{0, 0}, Complex{keep, 0}}},
              Mat2{{Complex{0, 0}, Complex{std::sqrt(p), 0}, Complex{0, 0},
                    Complex{0, 0}}}};
    case NoiseChannel::kPhaseDamping:
      // K0 = diag(1, sqrt(1-g)); K1 = sqrt(g) |1><1|.
      return {Mat2{{Complex{1, 0}, Complex{0, 0}, Complex{0, 0}, Complex{keep, 0}}},
              Mat2{{Complex{0, 0}, Complex{0, 0}, Complex{0, 0},
                    Complex{std::sqrt(p), 0}}}};
  }
  throw std::invalid_argument("kraus_ops: unknown channel");
}

std::vector<Mat2> readout_kraus(Real e) {
  if (e < 0 || e > 1)
    throw std::invalid_argument("readout_kraus: probability must be in [0, 1]");
  const Real keep = std::sqrt(1 - e);
  const Real flip = std::sqrt(e);
  return {Mat2{{Complex{keep, 0}, Complex{0, 0}, Complex{0, 0}, Complex{keep, 0}}},
          Mat2{{Complex{0, 0}, Complex{flip, 0}, Complex{flip, 0}, Complex{0, 0}}}};
}

Rng trajectory_rng(std::uint64_t seed, std::size_t trajectory) {
  // Distinct 64-bit seeds per trajectory; Rng::reseed's splitmix64 expansion
  // decorrelates the arithmetic progression.
  return Rng(seed + 0x9e3779b97f4a7c15ULL *
                        (static_cast<std::uint64_t>(trajectory) + 1));
}

void run_circuit_noisy(const Circuit& circuit, std::span<const Real> params,
                       StateVector& psi, const NoiseModel& noise, Rng& rng) {
  run_circuit_noisy(circuit, Binding(circuit, params), psi, noise, rng);
}

void run_circuit_noisy(const Circuit& circuit, const Binding& binding,
                       StateVector& psi, const NoiseModel& noise, Rng& rng) {
  if (psi.num_qubits() != circuit.num_qubits())
    throw std::invalid_argument("run_circuit_noisy: qubit count mismatch");
  check_binding(circuit, binding, "run_circuit_noisy");
  if (noise.has_gate_noise()) {
    // The Kraus set depends only on (channel, p): build it once for the
    // whole circuit instead of per gate touch (the depolarizing path
    // needs none — its Pauli insertion is state- and set-independent).
    const bool depol = noise.channel == NoiseChannel::kDepolarizing;
    const std::vector<Mat2> kraus =
        depol ? std::vector<Mat2>{}
              : kraus_ops(noise.channel, noise.gate_error_prob);
    const auto sample_channel = [&](Index q) {
      if (depol)
        maybe_depolarize(psi, q, noise.gate_error_prob, rng);
      else
        kraus_jump(psi, kraus, q, rng);
    };
    const auto ops = circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      apply_bound_op(ops[i], binding.block(i), psi);
      sample_channel(ops[i].qubits[0]);
      if (gate_qubit_count(ops[i].kind) == 2) sample_channel(ops[i].qubits[1]);
    }
  } else {
    run_circuit(circuit, binding, psi);
  }
  apply_readout_trajectory(psi, noise.readout_error, rng);
}

}  // namespace qugeo::qsim
