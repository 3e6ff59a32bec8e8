// NoiseModel channel conformance: every Kraus set is CPTP to 1e-12, the
// exact density-matrix evolution matches hand-computed 1-qubit fixtures
// (amplitude damping of |1>, phase damping of |+>), the depolarizing
// fast path equals its Kraus form, and trajectory sampling converges to
// the exact channel for every channel kind (readout included).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <span>
#include <string>

#include "common/fault.h"
#include "common/rng.h"
#include "qsim/backend.h"
#include "qsim/density_matrix.h"
#include "qsim/encoding.h"
#include "qsim/noise.h"
#include "qsim/shots.h"

namespace qugeo::qsim {
namespace {

constexpr NoiseChannel kAllChannels[] = {NoiseChannel::kDepolarizing,
                                         NoiseChannel::kAmplitudeDamping,
                                         NoiseChannel::kPhaseDamping};

void expect_completeness(std::span<const Mat2> kraus, const std::string& what) {
  // sum_k K_k^+ K_k = I (trace preservation of the CPTP map).
  Mat2 sum;
  for (const Mat2& k : kraus) {
    const Mat2 kd = dagger(k);
    for (int r = 0; r < 2; ++r)
      for (int c = 0; c < 2; ++c)
        sum(r, c) += kd(r, 0) * k(0, c) + kd(r, 1) * k(1, c);
  }
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      const Complex expected = r == c ? Complex{1, 0} : Complex{0, 0};
      EXPECT_NEAR(std::abs(sum(r, c) - expected), 0.0, 1e-12)
          << what << " entry (" << r << "," << c << ")";
    }
}

TEST(Channels, AllKrausSetsAreCPTP) {
  for (const NoiseChannel ch : kAllChannels)
    for (const Real p : {0.0, 0.05, 0.3, 0.75, 1.0})
      expect_completeness(kraus_ops(ch, p),
                          std::string(noise_channel_name(ch)) + " p=" +
                              std::to_string(p));
  for (const Real e : {0.0, 0.02, 0.5, 1.0})
    expect_completeness(readout_kraus(e), "readout e=" + std::to_string(e));
  EXPECT_THROW((void)kraus_ops(NoiseChannel::kAmplitudeDamping, 1.5),
               std::invalid_argument);
  EXPECT_THROW((void)readout_kraus(-0.1), std::invalid_argument);
}

TEST(Channels, ChannelNamesRoundTrip) {
  for (const NoiseChannel ch : kAllChannels) {
    const auto parsed = parse_noise_channel(noise_channel_name(ch));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ch);
  }
  EXPECT_EQ(parse_noise_channel("amp"), NoiseChannel::kAmplitudeDamping);
  EXPECT_EQ(parse_noise_channel("phase"), NoiseChannel::kPhaseDamping);
  EXPECT_FALSE(parse_noise_channel("thermal").has_value());
}

TEST(Channels, AmplitudeDampingOfExcitedState) {
  // |1><1| under amplitude damping gamma: relaxes to
  // gamma |0><0| + (1-gamma) |1><1| — the T1 decay fixture.
  const Real gamma = 0.3;
  StateVector one(1);
  one.apply_1q(gate_matrix(GateKind::kX, {}), 0);  // X|0> = |1>
  DensityMatrix rho = DensityMatrix::from_state(one);
  rho.apply_kraus(kraus_ops(NoiseChannel::kAmplitudeDamping, gamma), 0);

  EXPECT_NEAR(rho.element(0, 0).real(), gamma, 1e-12);
  EXPECT_NEAR(rho.element(1, 1).real(), 1 - gamma, 1e-12);
  EXPECT_NEAR(std::abs(rho.element(0, 1)), 0.0, 1e-12);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_NEAR(rho.expect_z(0), 2 * gamma - 1, 1e-12);
}

TEST(Channels, AmplitudeDampingShrinksPlusCoherence) {
  // |+><+| under amplitude damping gamma: populations pick up the decay
  // (rho00 = (1+gamma)/2), the coherence shrinks by sqrt(1-gamma).
  const Real gamma = 0.4;
  StateVector plus(1);
  plus.apply_1q(gate_matrix(GateKind::kH, {}), 0);
  DensityMatrix rho = DensityMatrix::from_state(plus);
  rho.apply_kraus(kraus_ops(NoiseChannel::kAmplitudeDamping, gamma), 0);

  EXPECT_NEAR(rho.element(0, 0).real(), (1 + gamma) / 2, 1e-12);
  EXPECT_NEAR(rho.element(1, 1).real(), (1 - gamma) / 2, 1e-12);
  EXPECT_NEAR(rho.element(0, 1).real(), std::sqrt(1 - gamma) / 2, 1e-12);
  EXPECT_NEAR(rho.element(0, 1).imag(), 0.0, 1e-12);
}

TEST(Channels, PhaseDampingOfPlusState) {
  // |+><+| under phase damping lambda: populations untouched, coherence
  // multiplied by sqrt(1-lambda) — the pure-T2 fixture.
  const Real lambda = 0.5;
  StateVector plus(1);
  plus.apply_1q(gate_matrix(GateKind::kH, {}), 0);
  DensityMatrix rho = DensityMatrix::from_state(plus);
  rho.apply_kraus(kraus_ops(NoiseChannel::kPhaseDamping, lambda), 0);

  EXPECT_NEAR(rho.element(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(rho.element(1, 1).real(), 0.5, 1e-12);
  EXPECT_NEAR(rho.element(0, 1).real(), std::sqrt(1 - lambda) / 2, 1e-12);
  EXPECT_NEAR(rho.element(1, 0).real(), std::sqrt(1 - lambda) / 2, 1e-12);
  EXPECT_NEAR(rho.expect_z(0), 0.0, 1e-12);
}

TEST(Channels, DepolarizingFastPathMatchesKrausForm) {
  // DensityMatrix::depolarize (the in-place fast path run_circuit_density
  // uses) must equal the generic apply_kraus of the depolarizing set.
  Rng rng(3);
  StateVector psi(2);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  psi.apply_1q(gate_matrix(GateKind::kH, {}), 0);

  const Real p = 0.13;
  DensityMatrix fast = DensityMatrix::from_state(psi);
  DensityMatrix generic = DensityMatrix::from_state(psi);
  fast.depolarize(1, p);
  generic.apply_kraus(kraus_ops(NoiseChannel::kDepolarizing, p), 1);
  for (Index r = 0; r < fast.dim(); ++r)
    for (Index c = 0; c < fast.dim(); ++c)
      EXPECT_NEAR(std::abs(fast.element(r, c) - generic.element(r, c)), 0.0,
                  1e-12)
          << "(" << r << "," << c << ")";
}

TEST(Channels, ReadoutKrausIsConfusionMatrixOnDiagonal) {
  // The bit-flip Kraus channel acts on the diagonal exactly like the
  // classical readout confusion matrix: p0' = (1-e) p0 + e p1.
  const Real e = 0.07;
  StateVector psi(1);
  psi.apply_1q(gate_matrix(GateKind::kRY, std::array<Real, 1>{0.8}), 0);
  DensityMatrix rho = DensityMatrix::from_state(psi);
  const Real p0 = rho.element(0, 0).real();
  const Real p1 = rho.element(1, 1).real();
  rho.apply_kraus(readout_kraus(e), 0);
  EXPECT_NEAR(rho.element(0, 0).real(), (1 - e) * p0 + e * p1, 1e-12);
  EXPECT_NEAR(rho.element(1, 1).real(), (1 - e) * p1 + e * p0, 1e-12);
}

Circuit mixing_circuit() {
  Circuit c(2);
  c.h(0);
  c.ry(1, 0.8);
  c.cx(0, 1);
  c.ry(0, 0.5);
  return c;
}

TEST(Channels, TrajectorySamplingConvergesToExactChannelForEveryKind) {
  // The Kraus-jump trajectory estimator must agree with the exact
  // density-matrix channel within statistical tolerance for every channel
  // kind, including the readout bit-flip error.
  const Circuit c = mixing_circuit();
  const std::vector<Index> qubits = {0, 1};
  struct Case {
    NoiseModel noise;
    const char* what;
  };
  NoiseModel amp;
  amp.gate_error_prob = 0.08;
  amp.channel = NoiseChannel::kAmplitudeDamping;
  NoiseModel phase;
  phase.gate_error_prob = 0.08;
  phase.channel = NoiseChannel::kPhaseDamping;
  NoiseModel depol;
  depol.gate_error_prob = 0.05;
  NoiseModel readout;
  readout.readout_error = 0.06;
  NoiseModel combined = amp;
  combined.readout_error = 0.04;
  const Case cases[] = {{depol, "depolarizing"},
                        {amp, "amplitude_damping"},
                        {phase, "phase_damping"},
                        {readout, "readout"},
                        {combined, "amplitude_damping+readout"}};

  for (const Case& tc : cases) {
    ExecutionConfig cfg;
    cfg.noise = tc.noise;
    cfg.backend = BackendKind::kDensityMatrix;
    const auto p_dm = run_probabilities(cfg, c, {}, StateVector(2));

    cfg.backend = BackendKind::kTrajectory;
    cfg.trajectories = 4000;
    cfg.seed = 1234;
    const auto p_tr = run_probabilities(cfg, c, {}, StateVector(2));

    const auto z_dm = expect_z_from_probabilities(p_dm, qubits);
    const auto z_tr = expect_z_from_probabilities(p_tr, qubits);
    for (std::size_t i = 0; i < qubits.size(); ++i)
      EXPECT_NEAR(z_tr[i], z_dm[i], 0.05) << tc.what << " qubit " << i;
    for (std::size_t k = 0; k < p_dm.size(); ++k)
      EXPECT_NEAR(p_tr[k], p_dm[k], 0.05) << tc.what << " state " << k;
  }
}

TEST(Channels, TrajectoriesStayNormalizedUnderDampingJumps) {
  // Kraus jumps renormalize after each application; every trajectory must
  // leave the state on the unit sphere.
  const Circuit c = mixing_circuit();
  for (const NoiseChannel ch :
       {NoiseChannel::kAmplitudeDamping, NoiseChannel::kPhaseDamping}) {
    NoiseModel noise;
    noise.gate_error_prob = 0.35;
    noise.channel = ch;
    noise.readout_error = 0.1;
    Rng rng(11);
    for (int t = 0; t < 20; ++t) {
      StateVector psi(2);
      run_circuit_noisy(c, {}, psi, noise, rng);
      EXPECT_NEAR(psi.norm_sq(), 1.0, 1e-10) << noise_channel_name(ch);
    }
  }
}

TEST(Channels, OversizedDensityRequestNamesTheChannel) {
  // Satellite fix: the density -> statevector fallback is only exact for a
  // trivial NoiseModel. Any active channel above the dense cap must throw
  // an error naming the channel, never silently fall back.
  const Index too_big = max_density_qubits() + 1;
  Circuit c(too_big);
  for (Index q = 0; q < too_big; ++q) c.h(q);
  for (Index q = 0; q + 1 < too_big; ++q) c.cry(q, q + 1, 0.7);
  const auto p_sv =
      run_probabilities(ExecutionConfig{}, c, {}, StateVector(too_big));

  ExecutionConfig cfg;
  cfg.backend = BackendKind::kDensityMatrix;
  fault::clear_degradation_events();
  const auto p_dm = run_probabilities(cfg, c, {}, StateVector(too_big));
  ASSERT_EQ(p_dm.size(), p_sv.size());
  for (std::size_t k = 0; k < p_sv.size(); ++k) ASSERT_EQ(p_dm[k], p_sv[k]);
  const auto events = fault::degradation_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component, "backend");

  cfg.noise.gate_error_prob = 0.01;
  cfg.noise.channel = NoiseChannel::kAmplitudeDamping;
  try {
    (void)run_probabilities(cfg, c, {}, StateVector(too_big));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("amplitude_damping"),
              std::string::npos)
        << err.what();
  }

  cfg.noise.gate_error_prob = 0;
  cfg.noise.readout_error = 0.02;
  try {
    (void)run_probabilities(cfg, c, {}, StateVector(too_big));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("readout"), std::string::npos)
        << err.what();
  }

  // The shot readout stage owns the readout error, so the density engine
  // runs a trivial model and the exact substitution is legal again.
  cfg.shots = 1024;
  fault::clear_degradation_events();
  const auto sampled = run_probabilities(cfg, c, {}, StateVector(too_big));
  ASSERT_EQ(sampled.size(), p_sv.size());
  EXPECT_EQ(fault::degradation_events().size(), 1u);

  ::setenv("QUGEO_NOISE_CHANNEL", "phase_damping", 1);
  EXPECT_EQ(apply_env_overrides(ExecutionConfig{}).noise.channel,
            NoiseChannel::kPhaseDamping);
  ::setenv("QUGEO_NOISE_CHANNEL", "not-a-channel", 1);
  EXPECT_THROW((void)apply_env_overrides(ExecutionConfig{}),
               std::invalid_argument);
  ::unsetenv("QUGEO_NOISE_CHANNEL");
}

}  // namespace
}  // namespace qugeo::qsim
