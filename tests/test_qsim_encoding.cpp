// Encoders: direct amplitude injection, grouped product states, and the
// synthesized state-preparation circuits (the circuit must reproduce the
// directly injected state exactly).
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_utils.h"
#include "common/rng.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"

namespace qugeo::qsim {
namespace {

TEST(AmplitudeEncoding, NormalizesAndStores) {
  StateVector psi(2);
  const std::vector<Real> data = {3, 0, 4, 0};
  const Real norm = encode_amplitudes(data, psi);
  EXPECT_NEAR(norm, 5.0, 1e-12);
  EXPECT_NEAR(psi.probability(0), 0.36, 1e-12);
  EXPECT_NEAR(psi.probability(2), 0.64, 1e-12);
  EXPECT_NEAR(psi.norm_sq(), 1.0, 1e-12);
}

TEST(AmplitudeEncoding, ZeroVectorFallsBackToGround) {
  StateVector psi(2);
  const std::vector<Real> data = {0, 0, 0, 0};
  const Real norm = encode_amplitudes(data, psi);
  EXPECT_EQ(norm, 0.0);
  EXPECT_NEAR(psi.probability(0), 1.0, 1e-14);
}

TEST(AmplitudeEncoding, RejectsWrongLength) {
  StateVector psi(2);
  const std::vector<Real> data = {1, 2, 3};
  EXPECT_THROW(encode_amplitudes(data, psi), std::invalid_argument);
}

TEST(GroupedEncoding, ProductOfTwoGroups) {
  // group0 (low qubit): (1,0); group1 (high qubit): (0,1) -> |10>.
  const std::vector<std::vector<Real>> groups = {{1, 0}, {0, 1}};
  StateVector psi(2);
  encode_grouped_amplitudes(groups, psi);
  EXPECT_NEAR(psi.probability(2), 1.0, 1e-12);
}

TEST(GroupedEncoding, PerGroupNormalization) {
  const std::vector<std::vector<Real>> groups = {{2, 0, 0, 0}, {0, 10}};
  StateVector psi(3);
  encode_grouped_amplitudes(groups, psi);
  // group0 -> |00>, group1 -> |1>: joint |100> = index 4.
  EXPECT_NEAR(psi.probability(4), 1.0, 1e-12);
}

TEST(GroupedEncoding, MarginalsRecoverGroupData) {
  Rng rng(21);
  std::vector<std::vector<Real>> groups(2, std::vector<Real>(4));
  for (auto& g : groups) rng.fill_uniform(g, 0.1, 1.0);
  StateVector psi(4);
  encode_grouped_amplitudes(groups, psi);

  for (std::size_t g = 0; g < 2; ++g) {
    std::vector<Real> expect = groups[g];
    normalize_l2(expect);
    const std::vector<Index> qubits = g == 0 ? std::vector<Index>{0, 1}
                                             : std::vector<Index>{2, 3};
    const auto marg = psi.marginal_probabilities(qubits);
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_NEAR(marg[k], expect[k] * expect[k], 1e-12);
  }
}

TEST(GroupedEncoding, RejectsNonPow2Group) {
  const std::vector<std::vector<Real>> groups = {{1, 2, 3}};
  StateVector psi(2);
  EXPECT_THROW(encode_grouped_amplitudes(groups, psi), std::invalid_argument);
}

TEST(Ucry, NoControlsIsPlainRY) {
  Circuit c(1);
  const std::vector<Real> angles = {0.9};
  append_ucry(c, angles, {}, 0);
  ASSERT_EQ(c.num_ops(), 1u);
  EXPECT_EQ(c.ops()[0].kind, GateKind::kRY);
}

TEST(Ucry, ActsAsMultiplexer) {
  // With one control, UCRY applies RY(a0) when control=0 and RY(a1) when
  // control=1. Verify on both control settings.
  const std::vector<Real> angles = {0.6, -1.3};
  for (int ctrl_val = 0; ctrl_val < 2; ++ctrl_val) {
    Circuit c(2);
    const std::vector<Index> controls = {1};
    append_ucry(c, angles, controls, 0);
    StateVector psi(2);
    if (ctrl_val) psi.apply_1q(gate_matrix(GateKind::kX, {}), 1);
    run_circuit(c, {}, psi);
    const Real expected_p1 =
        std::pow(std::sin(angles[static_cast<std::size_t>(ctrl_val)] / 2), 2);
    const Index target_one = ctrl_val ? Index{3} : Index{1};
    EXPECT_NEAR(psi.probability(target_one), expected_p1, 1e-12) << ctrl_val;
  }
}

class StatePrepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StatePrepTest, CircuitReproducesTarget) {
  const std::size_t num_qubits = GetParam();
  const std::size_t dim = std::size_t{1} << num_qubits;
  Rng rng(1000 + num_qubits);
  std::vector<Real> data(dim);
  rng.fill_uniform(data, -1, 1);  // includes negative amplitudes

  const Circuit prep = state_prep_circuit(data);
  StateVector psi(num_qubits);
  run_circuit(prep, {}, psi);

  StateVector expected(num_qubits);
  encode_amplitudes(data, expected);
  EXPECT_NEAR(psi.fidelity(expected), 1.0, 1e-10) << num_qubits << " qubits";
}

INSTANTIATE_TEST_SUITE_P(Sizes, StatePrepTest, ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(StatePrep, GateCountGrowsLinearlyInDim) {
  // The multiplexed-RY construction uses ~2*2^n gates; the paper's QuBatch
  // complexity argument needs encoder growth linear in the state dimension.
  Rng rng(5);
  std::vector<Real> small(1 << 4), large(1 << 8);
  rng.fill_uniform(small, -1, 1);
  rng.fill_uniform(large, -1, 1);
  const std::size_t ops_small = state_prep_circuit(small).num_ops();
  const std::size_t ops_large = state_prep_circuit(large).num_ops();
  EXPECT_LE(ops_small, 2 * small.size() + 8);
  EXPECT_LE(ops_large, 2 * large.size() + 8);
}

TEST(StatePrep, RejectsNonPow2) {
  const std::vector<Real> data = {1, 2, 3};
  EXPECT_THROW((void)state_prep_circuit(data), std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::qsim
