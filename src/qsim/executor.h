// Circuit execution and reverse-mode (adjoint) differentiation.
//
// The backward pass follows the standard adjoint-state method for unitary
// programs: starting from the cotangent lambda_k = dL/d(conj(psi_k)) at the
// output, gates are un-applied one at a time; at each parameterized gate the
// contribution dL/dtheta = 2 Re <lambda | dU/dtheta | psi_before> is
// accumulated. A parameterized gate costs one pass over the index pairs it
// touches: each pair of psi and lambda is loaded once, rewound by U^dagger,
// and folded into the 2x2 sum G(a, b) = sum conj(lambda_a) psi_before_b;
// every slot's gradient is then 2 Re sum_ab dU_ab G_ab, four complex
// products per slot per gate, so the pass costs the same for one slot or
// three. Other ops rewind psi and lambda with the forward kernels. Memory
// is O(2^n) regardless of depth, without storing intermediate states.
#pragma once

#include <span>
#include <vector>

#include "qsim/circuit.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {

/// Run the circuit forward on `psi` (in place), resolving trainable angles
/// against `params` (must have length >= circuit.num_params()).
void run_circuit(const Circuit& circuit, std::span<const Real> params,
                 StateVector& psi);

/// Apply a single op forward on `psi`.
void apply_op(const Op& op, std::span<const Real> params, StateVector& psi);

/// Apply the inverse (dagger) of a single op.
void apply_op_inverse(const Op& op, std::span<const Real> params,
                      StateVector& psi);

/// Result of an adjoint backward pass.
struct AdjointResult {
  /// Gradient with respect to each trainable parameter.
  std::vector<Real> param_grads;
  /// Cotangent propagated to the circuit input, lambda_in = dL/d(conj(psi_in)).
  /// Useful for chaining into an encoder (e.g. end-to-end tests).
  std::vector<Complex> input_cotangent;
};

/// Reverse-mode differentiation through `circuit`.
///
/// @param psi_out     the state *after* running the circuit (is consumed as
///                    scratch; pass a copy if it must survive).
/// @param cotangent   lambda_k = dL/d(conj(psi_k)) evaluated at psi_out.
[[nodiscard]] AdjointResult adjoint_backward(const Circuit& circuit,
                                             std::span<const Real> params,
                                             StateVector psi_out,
                                             std::span<const Complex> cotangent);

/// Parameter-shift gradient for circuits whose trainable gates are all
/// RX/RY/RZ/CRY (generator eigenvalues +-1/2). Used to cross-validate the
/// adjoint engine in tests. `loss` maps a final state to a scalar.
template <typename LossFn>
[[nodiscard]] std::vector<Real> parameter_shift_gradient(
    const Circuit& circuit, std::span<const Real> params,
    const StateVector& psi_in, LossFn&& loss) {
  std::vector<Real> grads(circuit.num_params(), Real(0));
  std::vector<Real> shifted(params.begin(), params.end());
  const Real s = kPi / 2;
  for (std::size_t p = 0; p < circuit.num_params(); ++p) {
    shifted[p] = params[p] + s;
    StateVector plus = psi_in;
    run_circuit(circuit, shifted, plus);
    shifted[p] = params[p] - s;
    StateVector minus = psi_in;
    run_circuit(circuit, shifted, minus);
    shifted[p] = params[p];
    grads[p] = (loss(plus) - loss(minus)) / 2;
  }
  return grads;
}

}  // namespace qugeo::qsim
