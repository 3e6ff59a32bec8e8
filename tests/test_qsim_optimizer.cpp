// Peephole optimizer: semantic preservation (fidelity 1 on random states)
// plus targeted rewrites.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"
#include "qsim/optimizer.h"

namespace qugeo::qsim {
namespace {

StateVector random_state(Index qubits, Rng& rng) {
  StateVector psi(qubits);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  return psi;
}

void expect_equivalent(const Circuit& a, const Circuit& b,
                       std::span<const Real> params, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sa = random_state(a.num_qubits(), rng);
  StateVector sb = sa;
  run_circuit(a, params, sa);
  run_circuit(b, params, sb);
  EXPECT_NEAR(sa.fidelity(sb), 1.0, 1e-10);
}

TEST(Optimizer, CancelsAdjacentSelfInversePairs) {
  Circuit c(2);
  c.h(0);
  c.h(0);
  c.cx(0, 1);
  c.cx(0, 1);
  c.x(1);
  OptimizeStats stats;
  const Circuit opt = optimize_circuit(c, {}, &stats);
  EXPECT_EQ(opt.num_ops(), 1u);
  EXPECT_EQ(stats.cancelled_pairs, 2u);
  expect_equivalent(c, opt, {}, 1);
}

TEST(Optimizer, SwapCancellationIsOperandOrderInsensitive) {
  Circuit c(3);
  c.swap(0, 2);
  c.swap(2, 0);
  const Circuit opt = optimize_circuit(c);
  EXPECT_EQ(opt.num_ops(), 0u);
}

TEST(Optimizer, CancellationSkipsCommutingSpectators) {
  // H(0) H(0) with a gate on qubit 1 in between still cancels.
  Circuit c(2);
  c.h(0);
  c.ry(1, 0.4);
  c.h(0);
  const Circuit opt = optimize_circuit(c);
  EXPECT_EQ(opt.num_ops(), 1u);
  expect_equivalent(c, opt, {}, 2);
}

TEST(Optimizer, BlockedCancellationIsNotApplied) {
  // An intervening gate on the same qubit blocks the pair.
  Circuit c(1);
  c.h(0);
  c.t(0);
  c.h(0);
  const Circuit opt = optimize_circuit(c);
  EXPECT_EQ(opt.num_ops(), 3u);
}

TEST(Optimizer, FusesLiteralRotations) {
  Circuit c(1);
  c.rx(0, 0.3);
  c.rx(0, 0.5);
  c.rz(0, 1.0);
  OptimizeStats stats;
  const Circuit opt = optimize_circuit(c, {}, &stats);
  EXPECT_EQ(opt.num_ops(), 2u);
  EXPECT_EQ(stats.fused_rotations, 1u);
  EXPECT_NEAR(opt.ops()[0].literals[0], 0.8, 1e-12);
  expect_equivalent(c, opt, {}, 3);
}

TEST(Optimizer, FusionCanCascadeToIdentity) {
  Circuit c(1);
  c.ry(0, 0.7);
  c.ry(0, -0.7);
  const Circuit opt = optimize_circuit(c);
  EXPECT_EQ(opt.num_ops(), 0u);
}

TEST(Optimizer, DropsIdentityRotations) {
  Circuit c(2);
  c.rx(0, 0.0);
  c.rz(1, 4 * kPi);
  c.phase(0, 2 * kPi);
  c.ry(1, 0.2);
  OptimizeStats stats;
  const Circuit opt = optimize_circuit(c, {}, &stats);
  EXPECT_EQ(opt.num_ops(), 1u);
  EXPECT_EQ(stats.dropped_identities, 3u);
  expect_equivalent(c, opt, {}, 4);
}

TEST(Optimizer, TrainableRotationsAreNeverTouched) {
  Circuit c(1);
  const ParamRef p = c.new_param();
  const ParamRef q = c.new_param();
  c.rx(0, p);
  c.rx(0, q);
  const Circuit opt = optimize_circuit(c);
  EXPECT_EQ(opt.num_ops(), 2u);
  EXPECT_EQ(opt.num_params(), 2u);
  const std::vector<Real> params = {0.4, -1.1};
  expect_equivalent(c, opt, params, 5);
}

TEST(Optimizer, PreservesParameterIds) {
  Circuit c(2);
  const ParamRef p3 = c.new_params(3);
  c.h(0);
  c.h(0);  // cancels
  c.u3(1, p3);
  const Circuit opt = optimize_circuit(c);
  ASSERT_EQ(opt.num_ops(), 1u);
  EXPECT_EQ(opt.ops()[0].param_ids[0], p3.id);
  EXPECT_EQ(opt.num_params(), 3u);
}

TEST(Optimizer, RandomCircuitsStayEquivalent) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Circuit c(3);
    for (int g = 0; g < 30; ++g) {
      switch (rng.uniform_int(0, 5)) {
        case 0: c.h(static_cast<Index>(rng.uniform_int(0, 2))); break;
        case 1: c.x(static_cast<Index>(rng.uniform_int(0, 2))); break;
        case 2: c.rx(static_cast<Index>(rng.uniform_int(0, 2)),
                     rng.uniform(-3, 3)); break;
        case 3: {
          const auto a = static_cast<Index>(rng.uniform_int(0, 2));
          const auto b = static_cast<Index>(rng.uniform_int(0, 2));
          if (a != b) c.cx(a, b);
          break;
        }
        case 4: c.rz(static_cast<Index>(rng.uniform_int(0, 2)), 0.0); break;
        default: c.t(static_cast<Index>(rng.uniform_int(0, 2))); break;
      }
    }
    const Circuit opt = optimize_circuit(c);
    EXPECT_LE(opt.num_ops(), c.num_ops());
    expect_equivalent(c, opt, {}, 100 + static_cast<std::uint64_t>(trial));
  }
}

TEST(Optimizer, StatsAccounting) {
  Circuit c(1);
  c.x(0);
  c.x(0);
  c.rx(0, 0.0);
  OptimizeStats stats;
  (void)optimize_circuit(c, {}, &stats);
  EXPECT_EQ(stats.ops_before, 3u);
  EXPECT_EQ(stats.ops_after, 0u);
}

}  // namespace
}  // namespace qugeo::qsim
