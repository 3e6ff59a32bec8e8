#include "qsim/executor.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/cpu_features.h"
#include "common/math_utils.h"
#include "qsim/simd_kernels.h"

namespace qugeo::qsim {
namespace {

/// gate_matrix of the op's resolved angles; SWAP has no block, and its
/// entry is left zero.
Mat2 resolved_block(const Op& op, std::span<const Real> params) {
  if (op.kind == GateKind::kSWAP) return Mat2{};
  return gate_matrix(op.kind, Circuit::resolve_params(op, params));
}

/// Scalar pair pass of the adjoint sweep for one parameterized gate. Over
/// the `count` index pairs (i0 = first(j), i1 = i0 | tmask) it rewinds psi
/// and lambda by `ud` = U^dagger in place and returns
/// G(a, b) = sum conj(lambda_a) psi'_b — lambda before its rewind, psi'
/// after. The rewinds are apply_1q's formulas.
template <typename First>
Mat2 sweep_pairs(Complex* psi, Complex* lambda, Index count, Index tmask,
                 const Mat2& ud, First first) {
  const Complex u00 = ud(0, 0), u01 = ud(0, 1), u10 = ud(1, 0), u11 = ud(1, 1);
  Complex g00{0, 0}, g01{0, 0}, g10{0, 0}, g11{0, 0};
  for (Index j = 0; j < count; ++j) {
    const Index i0 = first(j);
    const Index i1 = i0 | tmask;
    const Complex p0 = psi[i0];
    const Complex p1 = psi[i1];
    const Complex n0 = cmul(u00, p0) + cmul(u01, p1);
    const Complex n1 = cmul(u10, p0) + cmul(u11, p1);
    psi[i0] = n0;
    psi[i1] = n1;
    const Complex l0 = lambda[i0];
    const Complex l1 = lambda[i1];
    g00 += cmul_conj(l0, n0);
    g01 += cmul_conj(l0, n1);
    g10 += cmul_conj(l1, n0);
    g11 += cmul_conj(l1, n1);
    lambda[i0] = cmul(u00, l0) + cmul(u01, l1);
    lambda[i1] = cmul(u10, l0) + cmul(u11, l1);
  }
  Mat2 g;
  g.m = {g00, g01, g10, g11};
  return g;
}

/// The pair pass over every pair a (controlled) 1q gate touches, on the
/// dispatched SIMD level. psi and lambda must have equal dimension.
Mat2 adjoint_sweep(GateKind kind, const std::array<Index, 2>& qubits,
                   const Mat2& ud, StateVector& psi, StateVector& lambda) {
  assert(psi.dim() == lambda.dim());
  Complex* p = psi.amplitudes_mut().data();
  Complex* l = lambda.amplitudes_mut().data();
  const Index n = psi.dim();
  const bool avx2 = simd::active_level() == simd::SimdLevel::kAvx2;
  if (gate_is_controlled_1q(kind)) {
    const Index control = qubits[0], target = qubits[1];
    if (avx2)
      return adjoint_sweep_controlled_1q_avx2(p, l, n, ud, control, target);
    const Index cmask = Index{1} << control;
    const Index lo = control < target ? control : target;
    const Index hi = control < target ? target : control;
    return sweep_pairs(p, l, n / 4, Index{1} << target, ud, [=](Index j) {
      return insert_two_zero_bits(j, lo, hi) | cmask;
    });
  }
  const Index q = qubits[0];
  if (avx2) return adjoint_sweep_1q_avx2(p, l, n, ud, q);
  return sweep_pairs(p, l, n / 2, Index{1} << q, ud,
                     [=](Index j) { return insert_zero_bit(j, q); });
}

/// Re sum_ab du(a, b) * g(a, b): with G from adjoint_sweep this is
/// Re <lambda| dU |psi> for one parameter slot.
Real re_contract(const Mat2& du, const Mat2& g) {
  Real s = 0;
  for (std::size_t k = 0; k < 4; ++k)
    s += du.m[k].real() * g.m[k].real() - du.m[k].imag() * g.m[k].imag();
  return s;
}

}  // namespace

void check_binding(const Circuit& circuit, const Binding& binding,
                   const char* who) {
  if (binding.num_ops() != circuit.num_ops())
    throw std::invalid_argument(std::string(who) +
                                ": binding is not of this circuit");
}

bool has_trainable_slot(const Op& op) noexcept {
  return op.param_ids[0] != kLiteralParam || op.param_ids[1] != kLiteralParam ||
         op.param_ids[2] != kLiteralParam;
}

Binding::Binding(const Circuit& circuit, std::span<const Real> params) {
  // Every parameter id is below num_params(), so one check here keeps
  // resolve_params from throwing part-way through the loop.
  if (params.size() < circuit.num_params())
    throw std::invalid_argument(
        "Binding: parameter table too small (" +
        std::to_string(params.size()) + " values, circuit needs " +
        std::to_string(circuit.num_params()) + ")");
  const auto ops = circuit.ops();
  blocks_.reserve(ops.size());
  derivs_.reserve(static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), has_trainable_slot)));
  for (const Op& op : ops) {
    if (!has_trainable_slot(op)) {
      blocks_.push_back(resolved_block(op, params));
      continue;
    }
    const GateDerivs d =
        gate_matrix_derivs(op.kind, Circuit::resolve_params(op, params));
    blocks_.push_back(d.u);
    derivs_.push_back(d.du);
  }
}

void apply_bound_op(const Op& op, const Mat2& u, StateVector& psi) {
  if (op.kind == GateKind::kSWAP)
    psi.apply_swap(op.qubits[0], op.qubits[1]);
  else if (op.kind == GateKind::kI)
    return;
  else if (gate_is_controlled_1q(op.kind))
    psi.apply_controlled_1q(u, op.qubits[0], op.qubits[1]);
  else
    psi.apply_1q(u, op.qubits[0]);
}

void apply_op(const Op& op, std::span<const Real> params, StateVector& psi) {
  apply_bound_op(op, resolved_block(op, params), psi);
}

void apply_op_inverse(const Op& op, std::span<const Real> params,
                      StateVector& psi) {
  apply_bound_op(op, dagger(resolved_block(op, params)), psi);
}

void run_circuit(const Circuit& circuit, const Binding& binding,
                 StateVector& psi) {
  if (psi.num_qubits() != circuit.num_qubits())
    throw std::invalid_argument("run_circuit: qubit count mismatch");
  check_binding(circuit, binding, "run_circuit");
  const auto ops = circuit.ops();
  for (std::size_t i = 0; i < ops.size(); ++i)
    apply_bound_op(ops[i], binding.block(i), psi);
}

void run_circuit(const Circuit& circuit, std::span<const Real> params,
                 StateVector& psi) {
  run_circuit(circuit, Binding(circuit, params), psi);
}

AdjointResult adjoint_backward(const Circuit& circuit,
                               std::span<const Real> params,
                               StateVector psi_out,
                               std::span<const Complex> cotangent) {
  return adjoint_backward(circuit, Binding(circuit, params), std::move(psi_out),
                          cotangent);
}

AdjointResult adjoint_backward(const Circuit& circuit, const Binding& binding,
                               StateVector psi_out,
                               std::span<const Complex> cotangent) {
  if (cotangent.size() != psi_out.dim())
    throw std::invalid_argument("adjoint_backward: cotangent size mismatch");
  check_binding(circuit, binding, "adjoint_backward");

  AdjointResult result;
  result.param_grads.assign(circuit.num_params(), Real(0));

  // lambda lives in a StateVector so gate kernels can be reused; it is not
  // normalized (it is a gradient, not a state).
  StateVector lambda(circuit.num_qubits());
  lambda.set_amplitudes(cotangent);

  const auto ops = circuit.ops();
  std::size_t trainable = binding.num_trainable_ops();
  for (std::size_t i = ops.size(); i-- > 0;) {
    const Op& op = ops[i];
    const Mat2 ud = dagger(binding.block(i));
    if (!has_trainable_slot(op)) {
      // psi_out equals psi after op i: rewind both states past it.
      apply_bound_op(op, ud, psi_out);
      apply_bound_op(op, ud, lambda);
      continue;
    }
    // One pass over the gate's index pairs rewinds psi_out to psi_{i-1} and
    // lambda to U^dagger lambda_i, and yields G(a, b) =
    // sum conj(lambda_i,a) psi_{i-1},b, so each slot's
    // dL/dtheta = 2 Re <lambda_i| dU |psi_{i-1}> = 2 Re sum_ab dU_ab G_ab.
    if (trainable == 0)
      throw std::invalid_argument("adjoint_backward: binding is not of this circuit");
    const std::array<Mat2, 3>& du = binding.derivs(--trainable);
    const Mat2 g = adjoint_sweep(op.kind, op.qubits, ud, psi_out, lambda);
    for (std::size_t slot = 0; slot < 3; ++slot) {
      const std::uint32_t pid = op.param_ids[slot];
      if (pid != kLiteralParam)
        result.param_grads[pid] += 2 * re_contract(du[slot], g);
    }
  }

  result.input_cotangent.assign(lambda.amplitudes().begin(),
                                lambda.amplitudes().end());
  return result;
}

}  // namespace qugeo::qsim
