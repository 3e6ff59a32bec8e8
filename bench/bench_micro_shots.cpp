// Microbenchmarks of the finite-shot sampled readout: the raw CDF sampler
// (qsim/shots.h) and the full shot-sampled forward pass
// (run_probabilities with a shot budget) on the paper ansatz — the cost
// model behind choosing a hardware-realistic shot budget. Merges into
// BENCH_micro.json like every micro suite.
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include "common/rng.h"
#include "core/ansatz.h"
#include "core/layout.h"
#include "qsim/backend.h"
#include "qsim/shots.h"

namespace {

using namespace qugeo;

qsim::Circuit build_paper_ansatz(Index qubits, std::size_t blocks) {
  const core::QubitLayout layout({qubits}, 0);
  core::AnsatzConfig cfg;
  cfg.blocks = blocks;
  return build_qugeo_ansatz(layout, cfg);
}

void BM_SampledReadoutFromCdf(benchmark::State& state) {
  // Arg = shot count on a fixed 8-qubit distribution (pure sampling cost:
  // per-shot RNG sub-stream + inverse-CDF binary search + readout flips).
  const Index qubits = 8;
  const Index dim = Index{1} << qubits;
  Rng rng(21);
  std::vector<Real> cdf(dim);
  Real acc = 0;
  for (Index k = 0; k < dim; ++k) {
    acc += rng.uniform();
    cdf[k] = acc;
  }
  const auto shots = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto probs =
        qsim::sampled_probabilities_from_cdf(cdf, qubits, ++seed, shots, 0.02);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shots));
}
BENCHMARK(BM_SampledReadoutFromCdf)->Arg(1024)->Arg(16384);

void BM_ShotBackendForward(benchmark::State& state) {
  // Arg = shot count over the statevector engine on the 8-qubit ansatz.
  const qsim::Circuit circuit = build_paper_ansatz(8, 4);
  std::vector<Real> params(circuit.num_params());
  Rng rng(11);
  rng.fill_uniform(params, -1, 1);

  qsim::ExecutionConfig cfg;
  cfg.shots = static_cast<std::size_t>(state.range(0));
  cfg.noise.readout_error = 0.02;
  for (auto _ : state) {
    const auto probs =
        qsim::run_probabilities(cfg, circuit, params, qsim::StateVector(8));
    benchmark::DoNotOptimize(probs.data());
  }
  // Shots drawn per second (the statevector forward is amortized across them).
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.shots));
  state.counters["gate_ops"] = static_cast<double>(circuit.num_ops());
}
BENCHMARK(BM_ShotBackendForward)->Arg(1024)->Arg(4096);

}  // namespace

QUGEO_BENCH_MICRO_MAIN()
