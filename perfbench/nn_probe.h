// Per-sample timings of the nn layer stacks the classical nets and the
// Q-D-CNN scaler use, measured on mirrors built from the public nn classes
// in the same shapes (the real nets keep their stacks private).
#pragma once

#include <cstddef>
#include <string>

#include "bench.h"
#include "common/rng.h"

namespace qugeo::perfbench {

enum class NetShape { kPx, kLy, kInet, kScaler };

struct NnProbe {
  double forward_us = 0;   ///< one sample through the stack
  double backward_us = 0;  ///< one sample back through the stack
  double adam_us = 0;      ///< Adam step cost per training sample
  double conv_share = 0;   ///< Conv2d share of forward + backward time
  std::size_t params = 0;  ///< parameter count of the mirror
};

/// Time the mirrored stack; the Adam step is amortized over `adam_every`
/// samples, as the real training loop steps once per that many.
[[nodiscard]] NnProbe probe_net(NetShape shape, std::size_t adam_every,
                                Rng& rng);

/// nn.forward_us.<net>, nn.backward_us.<net>, nn.adam_us.<net>.
void add_nn_metrics(Result& r, const std::string& net, const NnProbe& p);

}  // namespace qugeo::perfbench
