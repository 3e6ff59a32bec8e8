// Cotangent construction for training.
//
// Both QuGeoVQC decoders read the Born probabilities and backpropagate a
// loss gradient g_k = dL/dp_k. The probabilities are quadratic forms in the
// state, so the loss cotangent lambda_k = dL/d(conj(psi_k)) has the closed
// form implemented here; adjoint_backward then turns it into parameter
// gradients.
#pragma once

#include <span>
#include <vector>

#include "qsim/statevector.h"

namespace qugeo::qsim {

/// Cotangent of a loss expressed through the full probability vector:
/// given g_k = dL/dp_k, returns lambda_k = g_k * psi_k.
[[nodiscard]] std::vector<Complex> cotangent_from_probability_grads(
    const StateVector& psi, std::span<const Real> prob_grads);

}  // namespace qugeo::qsim
