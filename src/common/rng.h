// Deterministic random number generation for reproducible experiments.
//
// All stochastic components (dataset synthesis, parameter initialization,
// shuffling, noise trajectories) draw from an explicitly seeded Rng so every
// table and figure the bench harnesses print regenerates bit-identically.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace qugeo {

/// Complete serializable generator state: the four xoshiro256** words
/// plus the Box-Muller carry. Restoring it resumes the stream
/// bit-identically mid-sequence — the contract training checkpoints
/// (core/serialization) rely on.
struct RngState {
  std::uint64_t s[4] = {};
  bool has_cached_normal = false;
  Real cached_normal = 0;
};

/// xoshiro256** PRNG — fast, high quality, and fully deterministic across
/// platforms (unlike std::mt19937 distributions, which are
/// implementation-defined for reals in some standard libraries).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed via splitmix64 expansion.
  void reseed(std::uint64_t seed);

  /// Snapshot the full generator state (checkpointing).
  [[nodiscard]] RngState state() const;

  /// Restore a snapshot; the stream continues exactly where it left off.
  void set_state(const RngState& state);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform real in [0, 1).
  Real uniform();

  /// Uniform real in [lo, hi).
  Real uniform(Real lo, Real hi);

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  Real normal();

  /// Normal with given mean / stddev.
  Real normal(Real mu, Real sigma);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(Real p);

  /// Fisher-Yates shuffle of an index permutation [0, n).
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

  /// Fill a span with U(lo, hi) samples.
  void fill_uniform(std::span<Real> out, Real lo, Real hi);

  /// Fill a span with N(mu, sigma) samples.
  void fill_normal(std::span<Real> out, Real mu, Real sigma);

  /// Derive an independent child generator (stable stream splitting).
  [[nodiscard]] Rng split();

 private:
  std::uint64_t s_[4] = {};
  bool has_cached_normal_ = false;
  Real cached_normal_ = 0;
};

}  // namespace qugeo
