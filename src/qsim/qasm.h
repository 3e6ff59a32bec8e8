// OpenQASM 2.0 export/import, so synthesized encoders and the QuGeoVQC
// ansatz can be inspected, handed to external toolchains, or read back.
//
// Export covers every GateKind, including the controlled rotations and
// SWAP: gates missing from qelib1.inc (`p`, `cry`) get a one-line `gate`
// definition in the preamble, emitted only when the circuit uses them.
// from_qasm parses the same dialect back into a Circuit (angles become
// literals), giving a round-trip for trained-circuit snapshots.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "qsim/circuit.h"

namespace qugeo::qsim {

/// Serialize the circuit as OpenQASM 2.0. Trainable angles are resolved
/// against `params` (pass the trained table; must cover num_params()).
[[nodiscard]] std::string to_qasm(const Circuit& circuit,
                                  std::span<const Real> params);

/// Parse the dialect to_qasm emits (qelib1 gate set + the preamble-defined
/// `p` and `cry`) back into a Circuit. All angles become literal constants;
/// `id` ops vanish (Circuit has no method for them and they have no
/// effect). Exactly one `qreg` is supported. Throws std::invalid_argument
/// naming the line on malformed input or unsupported statements.
[[nodiscard]] Circuit from_qasm(std::string_view text);

}  // namespace qugeo::qsim
