// The adjoint differentiation engine is the load-bearing piece of the
// training pipeline; it is validated here against numerical finite
// differences and the parameter-shift rule on several circuit shapes and
// loss forms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"
#include "qsim/observables.h"

namespace qugeo::qsim {
namespace {

/// Loss = sum_k w_k * p_k for fixed weights (covers both decoders' math).
struct WeightedProbLoss {
  std::vector<Real> weights;

  Real operator()(const StateVector& psi) const {
    Real loss = 0;
    for (Index k = 0; k < psi.dim(); ++k)
      loss += weights[k] * psi.probability(k);
    return loss;
  }

  std::vector<Complex> cotangent(const StateVector& psi) const {
    return cotangent_from_probability_grads(psi, weights);
  }
};

std::vector<Real> finite_diff_grads(const Circuit& c,
                                    std::span<const Real> params,
                                    const StateVector& psi_in,
                                    const WeightedProbLoss& loss) {
  std::vector<Real> grads(c.num_params());
  std::vector<Real> p(params.begin(), params.end());
  const Real eps = 1e-6;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = params[i] + eps;
    StateVector plus = psi_in;
    run_circuit(c, p, plus);
    p[i] = params[i] - eps;
    StateVector minus = psi_in;
    run_circuit(c, p, minus);
    p[i] = params[i];
    grads[i] = (loss(plus) - loss(minus)) / (2 * eps);
  }
  return grads;
}

WeightedProbLoss make_loss(Index dim, Rng& rng) {
  WeightedProbLoss loss;
  loss.weights.resize(dim);
  rng.fill_uniform(loss.weights, -1, 1);
  return loss;
}

StateVector random_input(Index qubits, Rng& rng) {
  StateVector psi(qubits);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  return psi;
}

TEST(Executor, RunsEmptyCircuit) {
  Circuit c(2);
  StateVector psi(2);
  run_circuit(c, {}, psi);
  EXPECT_NEAR(psi.probability(0), 1.0, 1e-14);
}

TEST(Executor, RejectsQubitMismatch) {
  Circuit c(3);
  StateVector psi(2);
  EXPECT_THROW(run_circuit(c, {}, psi), std::invalid_argument);
}

TEST(Executor, RejectsShortParamTable) {
  Circuit c(1);
  c.rx(0, c.new_param());
  StateVector psi(1);
  EXPECT_THROW(run_circuit(c, {}, psi), std::invalid_argument);
}

TEST(Executor, InverseUndoesCircuit) {
  Circuit c(3);
  const auto p = c.new_params(6);
  c.u3(0, p);
  c.cx(0, 1);
  c.cu3(1, 2, ParamRef{p.id + 3});
  c.swap(0, 2);
  c.h(1);
  const std::vector<Real> params = {0.3, -0.8, 1.4, 0.9, 0.2, -1.1};

  Rng rng(3);
  StateVector psi = random_input(3, rng);
  const StateVector original = psi;
  run_circuit(c, params, psi);
  const auto ops = c.ops();
  for (std::size_t i = ops.size(); i-- > 0;) apply_op_inverse(ops[i], params, psi);
  EXPECT_NEAR(psi.fidelity(original), 1.0, 1e-12);
}

bool same_bits(const Mat2& a, const Mat2& b) {
  return std::memcmp(a.m.data(), b.m.data(), sizeof(a.m)) == 0;
}

/// Every gate kind a Circuit can hold, with literal angles and, for the
/// parameterized kinds, with trainable slots (all three, and a U3 that
/// mixes trainable and literal slots). No builder emits kI, so it has no
/// op here. Angles cycle through `angles`; so does the parameter table
/// `params` is resized to.
Circuit every_kind_circuit(std::span<const Real> angles,
                           std::vector<Real>& params) {
  const auto a = [&](std::size_t k) { return angles[k % angles.size()]; };
  Circuit c(3);
  c.x(0);
  c.y(1);
  c.z(2);
  c.h(0);
  c.s(1);
  c.sdg(2);
  c.t(0);
  c.tdg(1);
  c.cx(0, 1);
  c.cz(1, 2);
  c.swap(2, 0);
  c.rx(0, a(0));
  c.ry(1, a(1));
  c.rz(2, a(2));
  c.phase(0, a(3));
  c.u3(1, a(4), a(5), a(6));
  c.cry(0, 2, a(7));
  c.cu3(2, 1, a(8), a(9), a(10));
  c.rx(1, c.new_param());
  c.ry(2, c.new_param());
  c.rz(0, c.new_param());
  c.phase(1, c.new_param());
  c.u3(2, c.new_params(3));
  c.cry(1, 0, c.new_param());
  c.cu3(0, 2, c.new_params(3));
  c.u3(0, {c.new_param(), ParamRef{}, c.new_param()}, {0, a(11), 0});
  params.resize(c.num_params());
  for (std::size_t k = 0; k < params.size(); ++k) params[k] = a(k + 5);
  return c;
}

/// Random angles, signed zeros, and angles far outside [-2 pi, 2 pi].
std::vector<std::vector<Real>> binding_angle_sets() {
  Rng rng(29);
  std::vector<Real> random(13);
  rng.fill_uniform(random, -4, 4);
  return {random,
          {0.0, -0.0},
          {-0.0, 0.0, -0.0},
          {1e8, -2.5e12, 7.25e15, -3e19, 1e300, -0.0, 123456.789}};
}

TEST(Binding, BlocksAreBitwiseGateMatrixAndDerivs) {
  for (const std::vector<Real>& angles : binding_angle_sets()) {
    std::vector<Real> params;
    const Circuit c = every_kind_circuit(angles, params);
    const Binding b(c, params);
    ASSERT_EQ(b.num_ops(), c.num_ops());
    std::size_t trainable = 0;
    for (std::size_t i = 0; i < c.num_ops(); ++i) {
      const Op& op = c.ops()[i];
      if (op.kind == GateKind::kSWAP) continue;  // no block form
      const auto vals = Circuit::resolve_params(op, params);
      EXPECT_TRUE(same_bits(b.block(i), gate_matrix(op.kind, vals)))
          << "op " << i << " (" << gate_name(op.kind) << ")";
      if (!has_trainable_slot(op)) continue;
      const GateDerivs d = gate_matrix_derivs(op.kind, vals);
      EXPECT_TRUE(same_bits(b.block(i), d.u)) << "op " << i;
      ASSERT_LT(trainable, b.num_trainable_ops());
      for (std::size_t slot = 0; slot < 3; ++slot)
        EXPECT_TRUE(same_bits(b.derivs(trainable)[slot], d.du[slot]))
            << "op " << i << " slot " << slot;
      ++trainable;
    }
    EXPECT_EQ(trainable, b.num_trainable_ops());
  }
}

TEST(Binding, BoundForwardIsBitwiseThePerOpLoop) {
  for (simd::SimdMode mode : {simd::SimdMode::kScalar, simd::SimdMode::kAvx2}) {
    const simd::ScopedSimdMode scoped(mode);
    for (const std::vector<Real>& angles : binding_angle_sets()) {
      std::vector<Real> params;
      const Circuit c = every_kind_circuit(angles, params);
      Rng rng(31);
      const StateVector psi_in = random_input(3, rng);
      StateVector bound = psi_in;
      run_circuit(c, Binding(c, params), bound);
      StateVector per_op = psi_in;
      for (const Op& op : c.ops()) apply_op(op, params, per_op);
      EXPECT_EQ(std::memcmp(bound.amplitudes().data(),
                            per_op.amplitudes().data(),
                            bound.dim() * sizeof(Complex)),
                0)
          << simd::simd_mode_name(mode);
    }
    // kI, which no circuit holds: the bound dispatch skips it as apply_op
    // does.
    Op id;
    id.kind = GateKind::kI;
    Rng rng(37);
    const StateVector psi_in = random_input(2, rng);
    StateVector bound = psi_in;
    apply_bound_op(id, gate_matrix(GateKind::kI, {}), bound);
    StateVector per_op = psi_in;
    apply_op(id, {}, per_op);
    EXPECT_EQ(std::memcmp(bound.amplitudes().data(), per_op.amplitudes().data(),
                          bound.dim() * sizeof(Complex)),
              0);
  }
}

TEST(Binding, RejectsABindingOfAnotherCircuit) {
  Circuit small(2), large(2);
  small.h(0);
  large.h(0);
  large.cx(0, 1);
  const Binding b(small, {});
  StateVector psi(2);
  EXPECT_THROW(run_circuit(large, b, psi), std::invalid_argument);
  EXPECT_THROW((void)adjoint_backward(large, b, psi,
                                      std::vector<Complex>(psi.dim())),
               std::invalid_argument);
}

TEST(AdjointBackward, SingleRYAnalytic) {
  // loss = <Z> = cos(theta): dloss/dtheta = -sin(theta).
  Circuit c(1);
  c.ry(0, c.new_param());
  const Real theta = 0.83;
  const std::vector<Real> params = {theta};

  StateVector psi(1);
  run_circuit(c, params, psi);
  WeightedProbLoss loss{{1.0, -1.0}};  // <Z> as weighted probabilities
  const auto adj = adjoint_backward(c, params, psi, loss.cotangent(psi));
  ASSERT_EQ(adj.param_grads.size(), 1u);
  EXPECT_NEAR(adj.param_grads[0], -std::sin(theta), 1e-10);
}

class AdjointVsFiniteDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdjointVsFiniteDiff, RandomU3CU3Circuit) {
  Rng rng(GetParam());
  const Index qubits = 3 + static_cast<Index>(GetParam() % 2);
  Circuit c(qubits);
  for (int block = 0; block < 3; ++block) {
    for (Index q = 0; q < qubits; ++q) c.u3(q, c.new_params(3));
    for (Index q = 0; q < qubits; ++q)
      c.cu3(q, (q + 1) % qubits, c.new_params(3));
  }
  std::vector<Real> params(c.num_params());
  rng.fill_uniform(params, -1.5, 1.5);

  const StateVector psi_in = random_input(qubits, rng);
  const WeightedProbLoss loss = make_loss(psi_in.dim(), rng);

  StateVector psi = psi_in;
  run_circuit(c, params, psi);
  const auto adj = adjoint_backward(c, params, psi, loss.cotangent(psi));
  const auto fd = finite_diff_grads(c, params, psi_in, loss);

  ASSERT_EQ(adj.param_grads.size(), fd.size());
  for (std::size_t i = 0; i < fd.size(); ++i)
    EXPECT_NEAR(adj.param_grads[i], fd[i], 1e-6) << "param " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjointVsFiniteDiff,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(AdjointBackward, MixedFixedAndTrainableGates) {
  Rng rng(7);
  Circuit c(3);
  c.h(0);
  c.rx(1, 0.7);  // literal angle: must NOT receive a gradient slot
  c.ry(0, c.new_param());
  c.cx(0, 2);
  c.cry(2, 1, c.new_param());
  c.swap(1, 2);
  c.u3(2, c.new_params(3));
  std::vector<Real> params(c.num_params());
  rng.fill_uniform(params, -1, 1);

  const StateVector psi_in = random_input(3, rng);
  const WeightedProbLoss loss = make_loss(8, rng);

  StateVector psi = psi_in;
  run_circuit(c, params, psi);
  const auto adj = adjoint_backward(c, params, psi, loss.cotangent(psi));
  const auto fd = finite_diff_grads(c, params, psi_in, loss);
  for (std::size_t i = 0; i < fd.size(); ++i)
    EXPECT_NEAR(adj.param_grads[i], fd[i], 1e-6);
}

TEST(AdjointBackward, AgreesWithParameterShift) {
  // Parameter shift is exact for RX/RY/RZ/CRY generators.
  Rng rng(11);
  Circuit c(2);
  c.ry(0, c.new_param());
  c.rx(1, c.new_param());
  c.cry(0, 1, c.new_param());
  c.rz(0, c.new_param());
  std::vector<Real> params(c.num_params());
  rng.fill_uniform(params, -2, 2);

  const StateVector psi_in = random_input(2, rng);
  const WeightedProbLoss loss = make_loss(4, rng);

  StateVector psi = psi_in;
  run_circuit(c, params, psi);
  const auto adj = adjoint_backward(c, params, psi, loss.cotangent(psi));
  const auto ps = parameter_shift_gradient(
      c, params, psi_in, [&](const StateVector& s) { return loss(s); });
  for (std::size_t i = 0; i < ps.size(); ++i)
    EXPECT_NEAR(adj.param_grads[i], ps[i], 1e-9);
}

TEST(AdjointBackward, InputCotangentChainsThroughPriorLayer) {
  // Split a circuit in two; the input cotangent of the back half must act
  // as the output cotangent of the front half.
  Rng rng(13);
  Circuit front(2), back(2);
  front.ry(0, front.new_param());
  front.cx(0, 1);
  back.ry(1, back.new_param());
  back.cu3(1, 0, back.new_params(3));
  std::vector<Real> pf(front.num_params()), pb(back.num_params());
  rng.fill_uniform(pf, -1, 1);
  rng.fill_uniform(pb, -1, 1);

  const StateVector psi0 = random_input(2, rng);
  StateVector mid = psi0;
  run_circuit(front, pf, mid);
  StateVector out = mid;
  run_circuit(back, pb, out);

  const WeightedProbLoss loss = make_loss(4, rng);
  const auto adj_back = adjoint_backward(back, pb, out, loss.cotangent(out));
  const auto adj_front =
      adjoint_backward(front, pf, mid, adj_back.input_cotangent);

  // Compare front grads to finite differences through the FULL pipeline.
  const Real eps = 1e-6;
  for (std::size_t i = 0; i < pf.size(); ++i) {
    auto probe = [&](Real delta) {
      std::vector<Real> p = pf;
      p[i] += delta;
      StateVector s = psi0;
      run_circuit(front, p, s);
      run_circuit(back, pb, s);
      return loss(s);
    };
    const Real fd = (probe(eps) - probe(-eps)) / (2 * eps);
    EXPECT_NEAR(adj_front.param_grads[i], fd, 1e-6);
  }
}

}  // namespace
}  // namespace qugeo::qsim
