// Data encoders: classical vectors -> quantum states.
//
// Two routes are provided:
//  * direct amplitude injection (exact, what simulators do internally and
//    what TorchQuantum's amplitude encoder reduces to), and
//  * synthesis of an explicit state-preparation circuit out of uniformly
//    controlled RY rotations (Mottonen-style), so depth/size of the encoder
//    can be analyzed and exported as QASM — the paper's QuBatch complexity
//    argument rests on this circuit growing linearly with qubit count.
#pragma once

#include <span>
#include <vector>

#include "qsim/circuit.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {

/// L2-normalize `data` and write it into the amplitudes of `psi`.
/// `data` must have length psi.dim(). Returns the norm that was divided out
/// (0 if the input was all-zero, in which case |0...0> is prepared).
Real encode_amplitudes(std::span<const Real> data, StateVector& psi);

/// Grouped amplitude encoding: the state is the tensor product of one
/// amplitude-encoded register per group. `group_data[g]` must have a
/// power-of-two length; register g occupies qubits
/// [offset_g, offset_g + log2(len_g)) with group 0 at the low end.
/// The full state dimension is the product of group lengths.
void encode_grouped_amplitudes(std::span<const std::vector<Real>> group_data,
                               StateVector& psi);

/// Synthesize a state-preparation circuit mapping |0...0> to the normalized
/// real vector `data` (length must be a power of two). Uses multiplexed RY
/// rotations decomposed into CX + RY via Gray codes; gate count is
/// O(2^n) with depth linear in the rotation count.
[[nodiscard]] Circuit state_prep_circuit(std::span<const Real> data);

/// Append a uniformly-controlled RY (multiplexor) to `c`: applies
/// RY(angles[j]) on `target` when the control register `controls` is in
/// basis state j (controls[b] supplies bit b of j).
/// angles.size() must equal 2^controls.size().
void append_ucry(Circuit& c, std::span<const Real> angles,
                 std::span<const Index> controls, Index target);

}  // namespace qugeo::qsim
