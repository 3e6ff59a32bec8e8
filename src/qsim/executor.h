// Circuit execution and reverse-mode (adjoint) differentiation.
//
// Every engine runs from a Binding: each op's 2x2 block, and the slot
// derivatives of each op with a trainable angle, computed once per
// parameter table. A model binds once per parameter update, and every
// chunk, eval pass and served request until the next update runs from
// that binding. The `(circuit, params)` forms bind, then run.
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

#include <array>
#include <span>
#include <vector>

#include "qsim/circuit.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {

/// The 2x2 blocks of one circuit's ops under one parameter table. It holds
/// matrices only, no reference to the circuit, so it stays valid when the
/// circuit's owner moves; an engine checks it against the circuit it runs
/// by op count.
class Binding {
 public:
  /// The bind step: resolve every op of `circuit` against `params` and
  /// compute its block, by gate_matrix for a literal op and by
  /// gate_matrix_derivs for an op with a trainable slot. Throws
  /// std::invalid_argument when `params` is shorter than
  /// circuit.num_params(), before any engine touches a state.
  Binding(const Circuit& circuit, std::span<const Real> params);

  /// Op i's 2x2 block: gate_matrix of its resolved angles, taken from
  /// GateDerivs::u (bitwise the same) for an op with a trainable slot.
  /// Unused for SWAP, which has no block form.
  [[nodiscard]] const Mat2& block(std::size_t op) const { return blocks_[op]; }
  /// GateDerivs::du of the k-th op with a trainable slot, in op order.
  [[nodiscard]] const std::array<Mat2, 3>& derivs(std::size_t k) const {
    return derivs_[k];
  }
  [[nodiscard]] std::size_t num_ops() const noexcept { return blocks_.size(); }
  [[nodiscard]] std::size_t num_trainable_ops() const noexcept {
    return derivs_.size();
  }

 private:
  std::vector<Mat2> blocks_;
  std::vector<std::array<Mat2, 3>> derivs_;
};

/// True when any angle of `op` reads the parameter table.
[[nodiscard]] bool has_trainable_slot(const Op& op) noexcept;

/// Throws std::invalid_argument naming `who` unless `binding` has one block
/// per op of `circuit`; every bound engine checks this on entry.
void check_binding(const Circuit& circuit, const Binding& binding,
                   const char* who);

/// Run the circuit forward on `psi` (in place) from its binding.
void run_circuit(const Circuit& circuit, const Binding& binding,
                 StateVector& psi);

/// Bind, then run_circuit.
void run_circuit(const Circuit& circuit, std::span<const Real> params,
                 StateVector& psi);

/// Apply op with its bound block `u` on `psi`: the one dispatch every
/// statevector step runs on (SWAP ignores `u`, identity is skipped).
void apply_bound_op(const Op& op, const Mat2& u, StateVector& psi);

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

/// Reverse-mode differentiation through `circuit`, from its binding.
///
/// @param psi_out     the state *after* running the circuit (is consumed as
///                    scratch; pass a copy if it must survive).
/// @param cotangent   lambda_k = dL/d(conj(psi_k)) evaluated at psi_out.
[[nodiscard]] AdjointResult adjoint_backward(const Circuit& circuit,
                                             const Binding& binding,
                                             StateVector psi_out,
                                             std::span<const Complex> cotangent);

/// Bind, then adjoint_backward.
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
