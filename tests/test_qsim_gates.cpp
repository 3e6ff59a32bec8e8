// Gate library: unitarity, known matrices, analytic derivatives vs finite
// differences.
#include <gtest/gtest.h>

#include <cmath>

#include "qsim/gate.h"

namespace qugeo::qsim {
namespace {

constexpr Real kTol = 1e-12;

bool is_unitary(const Mat2& u) {
  // u * u^dagger == I
  const Mat2 d = dagger(u);
  Complex r00 = u(0, 0) * d(0, 0) + u(0, 1) * d(1, 0);
  Complex r01 = u(0, 0) * d(0, 1) + u(0, 1) * d(1, 1);
  Complex r10 = u(1, 0) * d(0, 0) + u(1, 1) * d(1, 0);
  Complex r11 = u(1, 0) * d(0, 1) + u(1, 1) * d(1, 1);
  return std::abs(r00 - Complex{1, 0}) < 1e-12 && std::abs(r01) < 1e-12 &&
         std::abs(r10) < 1e-12 && std::abs(r11 - Complex{1, 0}) < 1e-12;
}

TEST(GateMatrix, PauliXSquaresToIdentity) {
  const Mat2 x = gate_matrix(GateKind::kX, {});
  EXPECT_NEAR(std::abs(x(0, 1) - Complex{1, 0}), 0, kTol);
  EXPECT_NEAR(std::abs(x(1, 0) - Complex{1, 0}), 0, kTol);
  EXPECT_TRUE(is_unitary(x));
}

TEST(GateMatrix, HadamardIsUnitary) {
  EXPECT_TRUE(is_unitary(gate_matrix(GateKind::kH, {})));
}

TEST(GateMatrix, SdgIsInverseOfS) {
  const Mat2 s = gate_matrix(GateKind::kS, {});
  const Mat2 sdg = gate_matrix(GateKind::kSdg, {});
  const Complex prod = s(1, 1) * sdg(1, 1);
  EXPECT_NEAR(prod.real(), 1.0, kTol);
  EXPECT_NEAR(prod.imag(), 0.0, kTol);
}

TEST(GateMatrix, TGatePhase) {
  const Mat2 t = gate_matrix(GateKind::kT, {});
  EXPECT_NEAR(t(1, 1).real(), std::sqrt(0.5), kTol);
  EXPECT_NEAR(t(1, 1).imag(), std::sqrt(0.5), kTol);
}

TEST(GateMatrix, RotationsAreUnitaryAcrossAngles) {
  for (const GateKind kind : {GateKind::kRX, GateKind::kRY, GateKind::kRZ,
                              GateKind::kPhase}) {
    for (Real a : {-2.5, -0.3, 0.0, 0.7, 3.1}) {
      const Real params[] = {a};
      EXPECT_TRUE(is_unitary(gate_matrix(kind, params)))
          << gate_name(kind) << " angle " << a;
    }
  }
}

TEST(GateMatrix, U3IsUnitaryAcrossAngles) {
  for (Real t : {0.1, 1.2, 2.9}) {
    for (Real p : {-1.0, 0.5}) {
      for (Real l : {-0.4, 2.2}) {
        const Real params[] = {t, p, l};
        EXPECT_TRUE(is_unitary(gate_matrix(GateKind::kU3, params)));
      }
    }
  }
}

TEST(GateMatrix, U3ReducesToRYWhenPhasesVanish) {
  const Real params[] = {0.8, 0.0, 0.0};
  const Mat2 u = gate_matrix(GateKind::kU3, params);
  const Mat2 ry = gate_matrix(GateKind::kRY, params);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c)
      EXPECT_NEAR(std::abs(u(r, c) - ry(r, c)), 0, kTol);
}

TEST(GateMatrix, RZU3Relation) {
  // u3(0, 0, lambda) == p(lambda) up to the OpenQASM convention.
  const Real params[] = {0.0, 0.0, 1.3};
  const Mat2 u = gate_matrix(GateKind::kU3, params);
  EXPECT_NEAR(std::abs(u(0, 0) - Complex{1, 0}), 0, kTol);
  EXPECT_NEAR(std::abs(u(1, 1) - std::exp(Complex{0, 1.3})), 0, kTol);
}

TEST(GateMatrix, SwapHasNoBlockForm) {
  EXPECT_THROW((void)gate_matrix(GateKind::kSWAP, {}), std::invalid_argument);
}

class GateDerivTest
    : public ::testing::TestWithParam<std::tuple<GateKind, int, Real>> {};

TEST_P(GateDerivTest, MatchesFiniteDifference) {
  const auto [kind, slot, angle] = GetParam();
  std::array<Real, 3> params{angle, 0.4, -0.9};
  const GateDerivs derivs = gate_matrix_derivs(kind, params);
  const Mat2 analytic = derivs.du[static_cast<std::size_t>(slot)];

  // The matrix that rides along is gate_matrix's, bit for bit.
  const Mat2 u = gate_matrix(kind, params);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(derivs.u.m[k], u.m[k]);

  const Real eps = 1e-6;
  std::array<Real, 3> plus = params, minus = params;
  plus[static_cast<std::size_t>(slot)] += eps;
  minus[static_cast<std::size_t>(slot)] -= eps;
  const Mat2 up = gate_matrix(kind, plus);
  const Mat2 um = gate_matrix(kind, minus);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      const Complex fd = (up(r, c) - um(r, c)) / (2 * eps);
      EXPECT_NEAR(std::abs(analytic(r, c) - fd), 0, 1e-7)
          << gate_name(kind) << " slot " << slot << " entry " << r << c;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllParamGates, GateDerivTest,
    ::testing::Values(
        std::make_tuple(GateKind::kRX, 0, 0.3),
        std::make_tuple(GateKind::kRX, 0, -1.7),
        std::make_tuple(GateKind::kRY, 0, 0.9),
        std::make_tuple(GateKind::kRY, 0, 2.4),
        std::make_tuple(GateKind::kRZ, 0, -0.6),
        std::make_tuple(GateKind::kRZ, 0, 1.1),
        std::make_tuple(GateKind::kPhase, 0, 0.5),
        std::make_tuple(GateKind::kCRY, 0, 1.9),
        std::make_tuple(GateKind::kU3, 0, 0.7),
        std::make_tuple(GateKind::kU3, 1, 0.7),
        std::make_tuple(GateKind::kU3, 2, 0.7),
        std::make_tuple(GateKind::kCU3, 0, -1.2),
        std::make_tuple(GateKind::kCU3, 1, -1.2),
        std::make_tuple(GateKind::kCU3, 2, -1.2)));

TEST(GateDerivs, KindsWithoutParametersThrow) {
  for (const GateKind kind : {GateKind::kH, GateKind::kCX, GateKind::kSWAP,
                              GateKind::kFused2Q})
    EXPECT_THROW((void)gate_matrix_derivs(kind, {}), std::invalid_argument)
        << gate_name(kind);
}

TEST(GateMeta, ParamCounts) {
  EXPECT_EQ(gate_param_count(GateKind::kX), 0);
  EXPECT_EQ(gate_param_count(GateKind::kRX), 1);
  EXPECT_EQ(gate_param_count(GateKind::kU3), 3);
  EXPECT_EQ(gate_param_count(GateKind::kCU3), 3);
  EXPECT_EQ(gate_param_count(GateKind::kSWAP), 0);
}

TEST(GateMeta, QubitCounts) {
  EXPECT_EQ(gate_qubit_count(GateKind::kH), 1);
  EXPECT_EQ(gate_qubit_count(GateKind::kCX), 2);
  EXPECT_EQ(gate_qubit_count(GateKind::kSWAP), 2);
  EXPECT_EQ(gate_qubit_count(GateKind::kCU3), 2);
}

TEST(GateMeta, ControlledClassification) {
  EXPECT_TRUE(gate_is_controlled_1q(GateKind::kCX));
  EXPECT_TRUE(gate_is_controlled_1q(GateKind::kCU3));
  EXPECT_FALSE(gate_is_controlled_1q(GateKind::kSWAP));
  EXPECT_FALSE(gate_is_controlled_1q(GateKind::kU3));
}

}  // namespace
}  // namespace qugeo::qsim
