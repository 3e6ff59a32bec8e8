// Shot readout stage of run_probabilities: convergence of the empirical
// distribution to the engine's exact probabilities (binomial 4-sigma
// bound), bit-identical sampling for any thread count, readout-error
// inversion, every engine under the stage, and env plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "qsim/backend.h"
#include "qsim/shots.h"

namespace qugeo::qsim {
namespace {

Circuit spread_circuit(Index qubits) {
  // Entangled, non-uniform distribution with mass on every basis state.
  Circuit c(qubits);
  for (Index q = 0; q < qubits; ++q) c.ry(q, 0.4 + 0.3 * static_cast<Real>(q));
  for (Index q = 0; q + 1 < qubits; ++q) c.cx(q, q + 1);
  for (Index q = 0; q < qubits; ++q) c.ry(q, 0.9 - 0.2 * static_cast<Real>(q));
  return c;
}

TEST(ShotBackend, ConvergesToExactProbabilitiesWithin4SigmaBinomial) {
  const Circuit c = spread_circuit(4);
  ExecutionConfig cfg;
  const auto exact = run_probabilities(cfg, c, {}, StateVector(4));

  const std::size_t shots = 262144;
  cfg.shots = shots;
  cfg.seed = 31337;
  const auto sampled = run_probabilities(cfg, c, {}, StateVector(4));

  ASSERT_EQ(sampled.size(), exact.size());
  Real total = 0;
  for (std::size_t k = 0; k < exact.size(); ++k) {
    // Each bin count is Binomial(shots, p_k); 4 standard deviations plus a
    // hair of slack for p_k itself being a rounded double.
    const Real sigma =
        std::sqrt(exact[k] * (1 - exact[k]) / static_cast<Real>(shots));
    EXPECT_NEAR(sampled[k], exact[k], 4 * sigma + 1e-9) << "basis state " << k;
    total += sampled[k];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);  // empirical distribution normalizes
}

TEST(ShotBackend, BitIdenticalAcrossThreadCounts) {
  const Circuit c = spread_circuit(3);
  ExecutionConfig cfg;
  cfg.shots = 5000;
  cfg.seed = 99;
  cfg.noise.readout_error = 0.05;  // exercise the per-shot flip draws too

  set_num_threads(1);
  const auto p1 = run_probabilities(cfg, c, {}, StateVector(3));
  set_num_threads(4);
  const auto p4 = run_probabilities(cfg, c, {}, StateVector(3));
  set_num_threads(0);

  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t k = 0; k < p1.size(); ++k) EXPECT_EQ(p1[k], p4[k]);
}

TEST(ShotBackend, SampledEstimatesAreDeterministicForAFixedSeed) {
  const Circuit c = spread_circuit(3);
  ExecutionConfig cfg;
  cfg.shots = 2048;
  cfg.seed = 7;
  const auto pa = run_probabilities(cfg, c, {}, StateVector(3));
  const auto pb = run_probabilities(cfg, c, {}, StateVector(3));
  for (std::size_t k = 0; k < pa.size(); ++k) EXPECT_EQ(pa[k], pb[k]);

  cfg.seed = 8;
  const auto po = run_probabilities(cfg, c, {}, StateVector(3));
  bool any_diff = false;
  for (std::size_t k = 0; k < pa.size(); ++k) any_diff |= (pa[k] != po[k]);
  EXPECT_TRUE(any_diff);
}

TEST(ShotBackend, ReadoutErrorInversionRoundTrip) {
  // <Z> under a bit-flip readout error e contracts by (1 - 2e); dividing
  // the measured estimate by that factor must recover the noiseless
  // expectation within the (inflated) shot tolerance — the standard
  // readout-mitigation identity the deployment scenario relies on.
  const Circuit c = spread_circuit(3);
  ExecutionConfig cfg;
  const std::vector<Index> qubits = {0, 1, 2};
  const auto z_exact = expect_z_from_probabilities(
      run_probabilities(cfg, c, {}, StateVector(3)), qubits);

  const Real e = 0.08;
  const std::size_t shots = 200000;
  cfg.shots = shots;
  cfg.seed = 2718;
  cfg.noise.readout_error = e;
  const auto z_meas = expect_z_from_probabilities(
      run_probabilities(cfg, c, {}, StateVector(3)), qubits);

  const Real tol = 4.0 / ((1 - 2 * e) * std::sqrt(static_cast<Real>(shots)));
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    // Uncorrected estimates must show the contraction...
    EXPECT_NEAR(z_meas[i], (1 - 2 * e) * z_exact[i], (1 - 2 * e) * tol);
    // ...and the inversion must land back on the exact value.
    EXPECT_NEAR(z_meas[i] / (1 - 2 * e), z_exact[i], tol) << "qubit " << i;
  }
}

TEST(ShotBackend, WrapsEveryInnerBackendKind) {
  const Circuit c = spread_circuit(3);
  ExecutionConfig exact_cfg;
  exact_cfg.backend = BackendKind::kDensityMatrix;
  exact_cfg.noise.gate_error_prob = 0.02;
  const auto p_channel = run_probabilities(exact_cfg, c, {}, StateVector(3));
  const auto p_noiseless =
      run_probabilities(ExecutionConfig{}, c, {}, StateVector(3));

  for (const BackendKind kind :
       {BackendKind::kStatevector, BackendKind::kDensityMatrix,
        BackendKind::kTrajectory}) {
    ExecutionConfig cfg = exact_cfg;
    cfg.backend = kind;
    if (kind == BackendKind::kStatevector) cfg.noise.gate_error_prob = 0;
    cfg.trajectories = 2000;
    cfg.shots = 100000;
    cfg.seed = 424242;
    const auto p = run_probabilities(cfg, c, {}, StateVector(3));
    // Noisy inners converge to the exact channel, the noiseless
    // statevector inner to the noiseless distribution; both within the
    // combined shot + trajectory tolerance.
    const auto& ref =
        kind == BackendKind::kStatevector ? p_noiseless : p_channel;
    for (std::size_t k = 0; k < p.size(); ++k)
      EXPECT_NEAR(p[k], ref[k], 0.05) << backend_name(kind) << " state " << k;
  }
}

TEST(ShotBackend, EnvOverridesAreApplied) {
  ::setenv("QUGEO_SHOTS", "4096", 1);
  ::setenv("QUGEO_READOUT_P", "0.03", 1);
  const ExecutionConfig cfg = apply_env_overrides(ExecutionConfig{});
  ::unsetenv("QUGEO_SHOTS");
  ::unsetenv("QUGEO_READOUT_P");
  EXPECT_EQ(cfg.shots, 4096u);
  EXPECT_NEAR(cfg.noise.readout_error, 0.03, 1e-15);

  ::setenv("QUGEO_SHOTS", "-3", 1);
  EXPECT_THROW((void)apply_env_overrides(ExecutionConfig{}),
               std::invalid_argument);
  ::setenv("QUGEO_SHOTS", "0", 1);  // 0 = exact readout, explicitly allowed
  EXPECT_EQ(apply_env_overrides(ExecutionConfig{}).shots, 0u);
  ::unsetenv("QUGEO_SHOTS");
}

}  // namespace
}  // namespace qugeo::qsim
