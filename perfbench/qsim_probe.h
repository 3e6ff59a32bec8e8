// Per-call timings of the quantum path one QuBatch chunk takes through
// loss_and_gradient (encode, qsim::run_circuit on the ansatz, decode plus
// cotangent, qsim::adjoint_backward), driven through the public calls,
// plus the SSIM kernel the evaluation runs per 8x8 map.
#pragma once

#include "bench.h"
#include "common/types.h"

namespace qugeo::perfbench {

struct QsimProbe {
  double encode_us = 0;
  double forward_us = 0;
  double decode_us = 0;  ///< decode, probability grads and the cotangent
  double adjoint_us = 0;
};

/// Q-M-LY with 12 blocks on 8 data qubits plus `batch_log2` QuBatch
/// qubits, fed the first chunk of `ds`.
[[nodiscard]] QsimProbe probe_qsim(Index batch_log2,
                                   const data::ScaledDataset& ds,
                                   std::uint64_t seed);

/// metrics::ssim on one 8x8 map, as evaluate_predictions calls it.
[[nodiscard]] double probe_ssim_us(const data::ScaledDataset& ds);

}  // namespace qugeo::perfbench
