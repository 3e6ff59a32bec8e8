// Depolarizing-trajectory executor: zero noise reduces to exact execution;
// strong noise contracts <Z> toward zero; determinism under a fixed seed.
// Averages come from the trajectory backend of run_probabilities.
#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "qsim/backend.h"
#include "qsim/executor.h"
#include "qsim/noise.h"
#include "qsim/shots.h"

namespace qugeo::qsim {
namespace {

/// Trajectory-averaged <Z_q> of `circuit` from |0...0> under depolarizing
/// noise of strength p.
std::vector<Real> trajectory_z(const Circuit& circuit,
                               std::span<const Index> qubits, Real p,
                               std::uint64_t seed, std::size_t trajectories) {
  ExecutionConfig cfg;
  cfg.backend = BackendKind::kTrajectory;
  cfg.noise = NoiseModel{p};
  cfg.seed = seed;
  cfg.trajectories = trajectories;
  return expect_z_from_probabilities(
      run_probabilities(cfg, circuit, {}, StateVector(circuit.num_qubits())),
      qubits);
}

Circuit small_circuit() {
  Circuit c(2);
  c.h(0);
  c.ry(1, 0.4);
  c.cx(0, 1);
  c.ry(0, 1.1);
  return c;
}

TEST(Noise, ZeroProbabilityMatchesExact) {
  const Circuit c = small_circuit();
  StateVector exact(2), noisy(2);
  run_circuit(c, {}, exact);
  Rng rng(1);
  run_circuit_noisy(c, {}, noisy, NoiseModel{0.0}, rng);
  EXPECT_NEAR(noisy.fidelity(exact), 1.0, 1e-12);
}

TEST(Noise, TrajectoriesStayNormalized) {
  const Circuit c = small_circuit();
  Rng rng(2);
  for (int t = 0; t < 20; ++t) {
    StateVector psi(2);
    run_circuit_noisy(c, {}, psi, NoiseModel{0.3}, rng);
    EXPECT_NEAR(psi.norm_sq(), 1.0, 1e-10);
  }
}

TEST(Noise, DepolarizingContractsZ) {
  // Identity circuit on |0>: noiseless <Z> = 1; heavy depolarizing noise
  // pulls the trajectory average toward 0.
  Circuit c(1);
  for (int i = 0; i < 10; ++i) c.rz(0, 0.0);  // 10 noise insertion points
  const std::vector<Index> qubits = {0};
  const auto z = trajectory_z(c, qubits, 0.2, 3, 400);
  EXPECT_LT(std::abs(z[0]), 0.6);
  EXPECT_GT(z[0], -0.3);
}

TEST(Noise, SeedDeterminism) {
  const Circuit c = small_circuit();
  StateVector a(2), b(2);
  Rng r1(42), r2(42);
  run_circuit_noisy(c, {}, a, NoiseModel{0.25}, r1);
  run_circuit_noisy(c, {}, b, NoiseModel{0.25}, r2);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
}

TEST(Noise, MildNoiseDegradesGracefully) {
  const Circuit c = small_circuit();
  StateVector exact(2);
  run_circuit(c, {}, exact);
  const std::vector<Index> qubits = {0, 1};
  const auto z_mild = trajectory_z(c, qubits, 0.01, 5, 600);
  EXPECT_NEAR(z_mild[0], exact.expect_z(0), 0.15);
  EXPECT_NEAR(z_mild[1], exact.expect_z(1), 0.15);
}

TEST(Noise, TrajectoryStreamsIndependentOfThreadCount) {
  // Per-trajectory (seed, index) sub-streams + fixed-order reduction make
  // the average bit-identical for any pool size.
  const Circuit c = small_circuit();
  const std::vector<Index> qubits = {0, 1};
  set_num_threads(1);
  const auto z1 = trajectory_z(c, qubits, 0.1, 7, 64);
  set_num_threads(4);
  const auto z4 = trajectory_z(c, qubits, 0.1, 7, 64);
  set_num_threads(0);
  ASSERT_EQ(z1.size(), z4.size());
  for (std::size_t i = 0; i < z1.size(); ++i) EXPECT_EQ(z1[i], z4[i]);
}

TEST(Noise, SameSeedSameAverageDifferentSeedDiffers) {
  const Circuit c = small_circuit();
  const std::vector<Index> qubits = {0};
  const auto a = trajectory_z(c, qubits, 0.2, 11, 32);
  const auto b = trajectory_z(c, qubits, 0.2, 11, 32);
  const auto other = trajectory_z(c, qubits, 0.2, 12, 32);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_NE(a[0], other[0]);
}

TEST(Noise, TrajectoryRngStreamsAreDecorrelated) {
  // Adjacent trajectory indices must not produce correlated first draws.
  Rng r0 = trajectory_rng(123, 0);
  Rng r1 = trajectory_rng(123, 1);
  EXPECT_NE(r0.next_u64(), r1.next_u64());
}

}  // namespace
}  // namespace qugeo::qsim
