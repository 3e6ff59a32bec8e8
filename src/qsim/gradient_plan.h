// The two names perfbench/qsim_probe.cpp reads from the gradient plan (it
// includes this header at line 11 and calls them at lines 29-30). Training
// runs the ansatz as built, so a plan holds nothing and its execution form
// is the circuit it is given. Nothing in src/, tests/, bench/ or examples/
// may use it; drop it with the next change to the benchmark.
#pragma once

#include "qsim/circuit.h"

namespace qugeo::qsim {

struct GradientPlan {
  [[nodiscard]] static GradientPlan build(const Circuit&) { return {}; }
  [[nodiscard]] const Circuit& execution_form(const Circuit& c) const {
    return c;
  }
};

}  // namespace qugeo::qsim
