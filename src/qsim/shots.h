// Deterministic shot sampling: the one audited path that turns an exact
// probability distribution into empirical (finite-shot) estimates.
//
// On hardware the decoder reads expectations from a finite measurement
// budget; this module emulates that for any backend's probability output.
// Every shot draws from its own RNG sub-stream derived from (seed, shot
// index) and the per-slot counts are folded in fixed order, so estimates
// are bit-identical for any QUGEO_THREADS value — the same contract the
// trajectory sampler honors. The readout stage of run_probabilities
// (backend.h) delegates here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace qugeo::qsim {

/// \brief Independent RNG sub-stream for one measurement shot.
///
/// Same construction as trajectory_rng: shot s always sees the same
/// stream regardless of the thread that draws it, which is what makes the
/// sampled estimates bit-identical for any QUGEO_THREADS value.
/// \param seed  base seed (ExecutionConfig::seed, salted per QuBatch
///              chunk by QuGeoModel so chunks see independent noise).
/// \param shot  shot index within [0, shots).
[[nodiscard]] Rng shot_rng(std::uint64_t seed, std::size_t shot);

/// \brief Empirical probability vector from `shots` basis-state samples
/// of the cumulative distribution `cdf`.
///
/// Each sampled outcome independently flips every bit with probability
/// `readout_error` before being counted — the sampled realization of the
/// readout bit-flip channel. Shots fan out across the shared thread pool
/// in fixed slot strides; counts fold in fixed order, so the result is
/// bit-identical for any thread count. The estimates are
/// bitwise-reproducible functions of (cdf, seed, shots).
///
/// \param cdf            prefix sums over the 2^num_qubits basis states
///                       (last entry = total mass).
/// \param num_qubits     register width (cdf.size() == 2^num_qubits).
/// \param seed           base seed for the per-shot sub-streams.
/// \param shots          sample budget; must be positive.
/// \param readout_error  per-qubit bit-flip probability at readout.
[[nodiscard]] std::vector<Real> sampled_probabilities_from_cdf(
    std::span<const Real> cdf, Index num_qubits, std::uint64_t seed,
    std::size_t shots, Real readout_error = 0);

/// \brief <Z_q> for each listed qubit of a (possibly empirical)
/// probability vector over the full computational basis.
[[nodiscard]] std::vector<Real> expect_z_from_probabilities(
    std::span<const Real> probs, std::span<const Index> qubits);

}  // namespace qugeo::qsim
