// StateVector semantics: gate application against known small-system
// results, marginals, expectations, sampling.
#include <gtest/gtest.h>

#include <cmath>

#include "qsim/gate.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {
namespace {

TEST(StateVector, InitializesToZeroState) {
  StateVector psi(3);
  EXPECT_EQ(psi.dim(), 8u);
  EXPECT_NEAR(psi.probability(0), 1.0, 1e-14);
  EXPECT_NEAR(psi.norm_sq(), 1.0, 1e-14);
}

TEST(StateVector, XFlipsQubit) {
  StateVector psi(2);
  psi.apply_1q(gate_matrix(GateKind::kX, {}), 0);
  EXPECT_NEAR(psi.probability(1), 1.0, 1e-14);
  psi.apply_1q(gate_matrix(GateKind::kX, {}), 1);
  EXPECT_NEAR(psi.probability(3), 1.0, 1e-14);
}

TEST(StateVector, HadamardCreatesUniformSuperposition) {
  StateVector psi(3);
  const Mat2 h = gate_matrix(GateKind::kH, {});
  for (Index q = 0; q < 3; ++q) psi.apply_1q(h, q);
  for (Index k = 0; k < 8; ++k) EXPECT_NEAR(psi.probability(k), 0.125, 1e-12);
}

TEST(StateVector, BellStateViaHAndCX) {
  StateVector psi(2);
  psi.apply_1q(gate_matrix(GateKind::kH, {}), 0);
  psi.apply_controlled_1q(gate_matrix(GateKind::kX, {}), 0, 1);
  EXPECT_NEAR(psi.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(psi.probability(3), 0.5, 1e-12);
  EXPECT_NEAR(psi.probability(1), 0.0, 1e-12);
  EXPECT_NEAR(psi.probability(2), 0.0, 1e-12);
}

TEST(StateVector, ControlledGateIgnoresControlZero) {
  StateVector psi(2);  // |00>
  psi.apply_controlled_1q(gate_matrix(GateKind::kX, {}), 0, 1);
  EXPECT_NEAR(psi.probability(0), 1.0, 1e-14);  // unchanged
}

TEST(StateVector, SwapExchangesBasisStates) {
  StateVector psi(2);
  psi.apply_1q(gate_matrix(GateKind::kX, {}), 0);  // |01> (qubit0 = 1)
  psi.apply_swap(0, 1);
  EXPECT_NEAR(psi.probability(2), 1.0, 1e-14);  // |10>
}

TEST(StateVector, SwapIsSelfInverse) {
  StateVector psi(3);
  psi.apply_1q(gate_matrix(GateKind::kH, {}), 0);
  psi.apply_1q(gate_matrix(GateKind::kRY, std::array<Real, 1>{0.7}), 2);
  const StateVector before = psi;
  psi.apply_swap(0, 2);
  psi.apply_swap(0, 2);
  EXPECT_NEAR(psi.fidelity(before), 1.0, 1e-12);
}

TEST(StateVector, ExpectZSigns) {
  StateVector psi(2);
  EXPECT_NEAR(psi.expect_z(0), 1.0, 1e-14);
  psi.apply_1q(gate_matrix(GateKind::kX, {}), 0);
  EXPECT_NEAR(psi.expect_z(0), -1.0, 1e-14);
  EXPECT_NEAR(psi.expect_z(1), 1.0, 1e-14);
}

TEST(StateVector, ExpectZAfterRY) {
  // RY(theta)|0> -> <Z> = cos(theta).
  for (Real theta : {0.0, 0.4, 1.2, 2.8}) {
    StateVector psi(1);
    psi.apply_1q(gate_matrix(GateKind::kRY, std::array<Real, 1>{theta}), 0);
    EXPECT_NEAR(psi.expect_z(0), std::cos(theta), 1e-12) << theta;
  }
}

TEST(StateVector, MarginalProbabilities) {
  StateVector psi(3);
  psi.apply_1q(gate_matrix(GateKind::kH, {}), 0);
  psi.apply_1q(gate_matrix(GateKind::kX, {}), 2);
  const Index qubits[] = {2};
  const auto m = psi.marginal_probabilities(qubits);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_NEAR(m[0], 0.0, 1e-12);
  EXPECT_NEAR(m[1], 1.0, 1e-12);
}

TEST(StateVector, MarginalOrderingFollowsQubitList) {
  StateVector psi(2);
  psi.apply_1q(gate_matrix(GateKind::kX, {}), 0);  // |01>
  const Index fwd[] = {0, 1};
  const Index rev[] = {1, 0};
  EXPECT_NEAR(psi.marginal_probabilities(fwd)[1], 1.0, 1e-12);
  EXPECT_NEAR(psi.marginal_probabilities(rev)[2], 1.0, 1e-12);
}

TEST(StateVector, SetAmplitudesRoundTrip) {
  StateVector psi(2);
  const std::vector<Real> amps = {0.5, 0.5, 0.5, 0.5};
  psi.set_amplitudes_real(amps);
  EXPECT_NEAR(psi.norm_sq(), 1.0, 1e-12);
  for (Index k = 0; k < 4; ++k) EXPECT_NEAR(psi.probability(k), 0.25, 1e-12);
}

TEST(StateVector, SetAmplitudesRejectsWrongSize) {
  StateVector psi(2);
  const std::vector<Real> amps = {1.0, 0.0};
  EXPECT_THROW(psi.set_amplitudes_real(amps), std::invalid_argument);
}

TEST(StateVector, FidelityOfOrthogonalStates) {
  StateVector a(1), b(1);
  b.apply_1q(gate_matrix(GateKind::kX, {}), 0);
  EXPECT_NEAR(a.fidelity(b), 0.0, 1e-14);
  EXPECT_NEAR(a.fidelity(a), 1.0, 1e-14);
}

TEST(StateVector, UnitarityPreservedOverRandomCircuit) {
  StateVector psi(4);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const Real params[] = {rng.uniform(-3, 3), rng.uniform(-3, 3),
                           rng.uniform(-3, 3)};
    const auto q = static_cast<Index>(rng.uniform_int(0, 3));
    psi.apply_1q(gate_matrix(GateKind::kU3, params), q);
    const auto c = static_cast<Index>(rng.uniform_int(0, 3));
    if (c != q) psi.apply_controlled_1q(gate_matrix(GateKind::kU3, params), c, q);
  }
  EXPECT_NEAR(psi.norm_sq(), 1.0, 1e-10);
}

TEST(StateVector, RejectsTooManyQubits) {
  EXPECT_THROW(StateVector psi(29), std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::qsim
