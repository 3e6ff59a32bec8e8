// Circuit rewriting: peephole optimization (optimize_circuit) cancels
// adjacent self-inverse pairs, merges literal rotations and drops identity
// rotations. Safe before QASM export or depth accounting. No execution path
// runs it: every backend executes the circuit it is given.
#pragma once

#include "qsim/circuit.h"

namespace qugeo::qsim {

struct OptimizeOptions {
  bool cancel_self_inverse = true;  ///< X X, H H, Z Z, CX CX, CZ CZ, SWAP SWAP
  bool fuse_rotations = true;       ///< RX(a) RX(b) -> RX(a+b) (literals only)
  bool drop_identity_rotations = true;  ///< RX(0), RZ(2*k*2pi), P(0), ...
  Real angle_epsilon = 1e-12;           ///< |angle mod 4pi| below this is identity
};

struct OptimizeStats {
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t cancelled_pairs = 0;
  std::size_t fused_rotations = 0;
  std::size_t dropped_identities = 0;
};

/// Run the peephole passes to a fixed point and return the optimized
/// circuit. The result references the same trainable parameter table (ids
/// are preserved verbatim; num_params is unchanged).
[[nodiscard]] Circuit optimize_circuit(const Circuit& circuit,
                                       const OptimizeOptions& options = {},
                                       OptimizeStats* stats = nullptr);

}  // namespace qugeo::qsim
