// The probability cotangent builder: its closed form and size validation.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "qsim/encoding.h"
#include "qsim/observables.h"

namespace qugeo::qsim {
namespace {

StateVector random_state(Index qubits, Rng& rng) {
  StateVector psi(qubits);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  return psi;
}

TEST(Observables, ProbabilityCotangentForm) {
  Rng rng(3);
  const StateVector psi = random_state(3, rng);
  std::vector<Real> g(psi.dim());
  rng.fill_uniform(g, -2, 2);
  const auto cot = cotangent_from_probability_grads(psi, g);
  for (Index k = 0; k < psi.dim(); ++k) {
    const Complex expected = g[k] * psi.amplitude(k);
    EXPECT_NEAR(std::abs(cot[k] - expected), 0, 1e-14);
  }
}

TEST(Observables, SizeValidation) {
  StateVector psi(2);
  std::vector<Real> bad(3);
  EXPECT_THROW((void)cotangent_from_probability_grads(psi, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::qsim
