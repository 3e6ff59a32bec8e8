#include "qsim/shots.h"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.h"

namespace qugeo::qsim {
namespace {

/// Inverse-CDF draw of one basis state: the index of the first cdf entry
/// exceeding u (u pre-scaled by the caller to the cdf's total mass).
Index sample_outcome(std::span<const Real> cdf, Real u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<Index>(std::distance(cdf.begin(), it));
}

}  // namespace

Rng shot_rng(std::uint64_t seed, std::size_t shot) {
  return Rng(seed +
             0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shot) + 1));
}

std::vector<Real> sampled_probabilities_from_cdf(std::span<const Real> cdf,
                                                 Index num_qubits,
                                                 std::uint64_t seed,
                                                 std::size_t shots,
                                                 Real readout_error) {
  if (shots == 0)
    throw std::invalid_argument("sampled_probabilities_from_cdf: 0 shots");
  const Index dim = Index{1} << num_qubits;
  if (cdf.size() != dim)
    throw std::invalid_argument(
        "sampled_probabilities_from_cdf: cdf size must be 2^num_qubits");
  const Real total = cdf.back();

  // A fixed number of accumulation slots (independent of the thread count)
  // each count a strided subset of shots sequentially; the slots fold in
  // index order afterwards. Every shot draws its own (seed, shot)
  // sub-stream, so neither the slot assignment nor the pool schedule can
  // change the counts.
  const std::size_t slots = std::min<std::size_t>(shots, 64);
  std::vector<std::vector<std::uint64_t>> partial(slots);
  parallel_for(0, slots, [&](std::size_t s) {
    std::vector<std::uint64_t> counts(dim, 0);
    for (std::size_t shot = s; shot < shots; shot += slots) {
      Rng rng = shot_rng(seed, shot);
      Index outcome = sample_outcome(cdf, rng.uniform() * total);
      if (readout_error > 0)
        for (Index q = 0; q < num_qubits; ++q)
          if (rng.bernoulli(readout_error)) outcome ^= Index{1} << q;
      ++counts[outcome];
    }
    partial[s] = std::move(counts);
  });

  std::vector<std::uint64_t> counts(dim, 0);
  for (std::size_t s = 0; s < slots; ++s)
    for (Index k = 0; k < dim; ++k) counts[k] += partial[s][k];
  std::vector<Real> probs(dim);
  const Real inv = Real(1) / static_cast<Real>(shots);
  for (Index k = 0; k < dim; ++k)
    probs[k] = static_cast<Real>(counts[k]) * inv;
  return probs;
}

void apply_readout_to_probabilities(std::span<Real> probs, Index num_qubits,
                                    Real readout_error) {
  if (readout_error <= 0) return;
  const Index dim = Index{1} << num_qubits;
  if (probs.size() != dim)
    throw std::invalid_argument(
        "apply_readout_to_probabilities: size must be 2^num_qubits");
  for (Index q = 0; q < num_qubits; ++q) {
    const Index mask = Index{1} << q;
    for (Index k = 0; k < dim; ++k) {
      if (k & mask) continue;  // handle each (k, k^mask) pair once
      const Real lo = probs[k], hi = probs[k | mask];
      probs[k] = (1 - readout_error) * lo + readout_error * hi;
      probs[k | mask] = (1 - readout_error) * hi + readout_error * lo;
    }
  }
}

std::vector<Real> expect_z_from_probabilities(std::span<const Real> probs,
                                              std::span<const Index> qubits) {
  std::vector<Real> z(qubits.size(), Real(0));
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    const Index mask = Index{1} << qubits[i];
    for (Index k = 0; k < probs.size(); ++k)
      z[i] += ((k & mask) ? Real(-1) : Real(1)) * probs[k];
  }
  return z;
}

}  // namespace qugeo::qsim
