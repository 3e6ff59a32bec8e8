// Density-matrix simulator: pure-state agreement with the state vector,
// exact channel properties, and consistency with the trajectory sampler.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "qsim/backend.h"
#include "qsim/density_matrix.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"
#include "qsim/noise.h"
#include "qsim/shots.h"

namespace qugeo::qsim {
namespace {

Circuit random_circuit(Index qubits, int gates, Rng& rng) {
  Circuit c(qubits);
  for (int g = 0; g < gates; ++g) {
    const auto q = static_cast<Index>(rng.uniform_int(0, static_cast<std::int64_t>(qubits) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0: c.h(q); break;
      case 1: c.u3(q, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)); break;
      case 2: {
        const auto t = static_cast<Index>(rng.uniform_int(0, static_cast<std::int64_t>(qubits) - 1));
        if (t != q) c.cx(q, t);
        break;
      }
      default: {
        const auto t = static_cast<Index>(rng.uniform_int(0, static_cast<std::int64_t>(qubits) - 1));
        if (t != q) c.swap(q, t);
        break;
      }
    }
  }
  return c;
}

TEST(DensityMatrix, InitialStateIsGroundProjector) {
  DensityMatrix rho(2);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-14);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-14);
  EXPECT_NEAR(rho.probabilities()[0], 1.0, 1e-14);
}

TEST(DensityMatrix, FromStateReproducesBornProbabilities) {
  Rng rng(1);
  StateVector psi(3);
  std::vector<Real> data(8);
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  const DensityMatrix rho = DensityMatrix::from_state(psi);
  const auto p_rho = rho.probabilities();
  for (Index k = 0; k < 8; ++k)
    EXPECT_NEAR(p_rho[k], psi.probability(k), 1e-12);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, NoiselessEvolutionMatchesStateVector) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit c = random_circuit(3, 15, rng);
    StateVector psi(3);
    run_circuit(c, {}, psi);
    DensityMatrix rho(3);
    run_circuit_density(c, {}, rho, NoiseModel{});
    const auto p_rho = rho.probabilities();
    for (Index k = 0; k < 8; ++k)
      ASSERT_NEAR(p_rho[k], psi.probability(k), 1e-10) << "trial " << trial;
    for (Index q = 0; q < 3; ++q)
      ASSERT_NEAR(rho.expect_z(q), psi.expect_z(q), 1e-10);
  }
}

TEST(DensityMatrix, DepolarizePreservesTraceAndReducesPurity) {
  DensityMatrix rho(2);
  rho.apply_1q(gate_matrix(GateKind::kH, {}), 0);
  const Real purity_before = rho.purity();
  rho.depolarize(0, 0.2);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_LT(rho.purity(), purity_before);
}

TEST(DensityMatrix, FullDepolarizationIsMaximallyMixedOnQubit) {
  DensityMatrix rho(1);
  rho.depolarize(0, 0.75);  // p=3/4 = completely depolarizing channel
  EXPECT_NEAR(rho.expect_z(0), 0.0, 1e-12);
  EXPECT_NEAR(rho.purity(), 0.5, 1e-12);
}

TEST(DensityMatrix, DepolarizingZContraction) {
  // After the p-depolarizing channel, <Z> shrinks by exactly (1 - 4p/3).
  DensityMatrix rho(1);  // |0>, <Z> = 1
  const Real p = 0.15;
  rho.depolarize(0, p);
  EXPECT_NEAR(rho.expect_z(0), 1.0 - 4 * p / 3, 1e-12);
}

TEST(DensityMatrix, TrajectoryAverageConvergesToExactChannel) {
  // The Pauli-twirl trajectory sampler must agree with the exact channel
  // in expectation.
  Circuit c(2);
  c.h(0);
  c.ry(1, 0.8);
  c.cx(0, 1);
  c.ry(0, 0.5);
  const Real p = 0.05;

  DensityMatrix rho(2);
  run_circuit_density(c, {}, rho, NoiseModel{p});

  ExecutionConfig cfg;
  cfg.backend = BackendKind::kTrajectory;
  cfg.noise = NoiseModel{p};
  cfg.seed = 3;
  cfg.trajectories = 4000;
  const std::vector<Index> qubits = {0, 1};
  const auto z_traj = expect_z_from_probabilities(
      run_probabilities(cfg, c, {}, StateVector(2)), qubits);
  EXPECT_NEAR(z_traj[0], rho.expect_z(0), 0.05);
  EXPECT_NEAR(z_traj[1], rho.expect_z(1), 0.05);
}

TEST(DensityMatrix, KrausChannelMatchesUnitaryConjugation) {
  // A single unitary Kraus operator reduces to apply_1q.
  Rng rng(9);
  const Circuit c = random_circuit(3, 12, rng);
  DensityMatrix a(3), b(3);
  run_circuit_density(c, {}, a, NoiseModel{});
  run_circuit_density(c, {}, b, NoiseModel{});
  const Mat2 u = u3_matrix(0.7, -0.3, 1.1);
  a.apply_1q(u, 1);
  b.apply_kraus(std::span<const Mat2>(&u, 1), 1);
  for (Index r = 0; r < a.dim(); ++r)
    for (Index col = 0; col < a.dim(); ++col)
      ASSERT_NEAR(std::abs(a.element(r, col) - b.element(r, col)), 0.0, 1e-12);
}

TEST(DensityMatrix, KrausDepolarizingMatchesClosedForm) {
  // The four-operator depolarizing Kraus set must reproduce the in-place
  // depolarize() channel exactly.
  const Real p = 0.12;
  Rng rng(10);
  const Circuit c = random_circuit(2, 10, rng);
  DensityMatrix a(2), b(2);
  run_circuit_density(c, {}, a, NoiseModel{});
  run_circuit_density(c, {}, b, NoiseModel{});

  const Real k0 = std::sqrt(1 - p), kp = std::sqrt(p / 3);
  const Mat2 kraus[4] = {
      Mat2{{Complex{k0, 0}, Complex{0, 0}, Complex{0, 0}, Complex{k0, 0}}},
      Mat2{{Complex{0, 0}, Complex{kp, 0}, Complex{kp, 0}, Complex{0, 0}}},
      Mat2{{Complex{0, 0}, Complex{0, -kp}, Complex{0, kp}, Complex{0, 0}}},
      Mat2{{Complex{kp, 0}, Complex{0, 0}, Complex{0, 0}, Complex{-kp, 0}}}};
  a.depolarize(0, p);
  b.apply_kraus(kraus, 0);
  for (Index r = 0; r < a.dim(); ++r)
    for (Index col = 0; col < a.dim(); ++col)
      ASSERT_NEAR(std::abs(a.element(r, col) - b.element(r, col)), 0.0, 1e-12);
}

TEST(DensityMatrix, SetFromStateReplacesEvolvedState) {
  Rng rng(11);
  StateVector psi(2);
  std::vector<Real> data(4);
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  DensityMatrix rho(2);
  rho.apply_1q(gate_matrix(GateKind::kH, {}), 0);
  rho.set_from_state(psi);
  const auto probs = rho.probabilities();
  for (Index k = 0; k < 4; ++k) EXPECT_NEAR(probs[k], psi.probability(k), 1e-12);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, SwapConjugation) {
  DensityMatrix rho(2);
  rho.apply_1q(gate_matrix(GateKind::kX, {}), 0);  // |01><01| (qubit0 = 1)
  rho.apply_swap(0, 1);
  EXPECT_NEAR(rho.probabilities()[2], 1.0, 1e-12);  // |10>
}

TEST(DensityMatrix, RejectsTooManyQubits) {
  EXPECT_THROW(DensityMatrix rho(14), std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::qsim
