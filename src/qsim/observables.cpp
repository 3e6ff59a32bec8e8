#include "qsim/observables.h"

#include <stdexcept>

namespace qugeo::qsim {

std::vector<Complex> cotangent_from_probability_grads(
    const StateVector& psi, std::span<const Real> prob_grads) {
  if (prob_grads.size() != psi.dim())
    throw std::invalid_argument("cotangent_from_probability_grads: size mismatch");
  std::vector<Complex> lambda(psi.dim());
  const auto amps = psi.amplitudes();
  for (Index k = 0; k < psi.dim(); ++k) lambda[k] = prob_grads[k] * amps[k];
  return lambda;
}

}  // namespace qugeo::qsim
