// Microbenchmarks of the simulation backends: the paper ansatz executed
// through run_probabilities on the statevector, density-matrix, and
// N-trajectory engines — the cost model behind choosing exact vs. sampled
// noise for the NISQ ablation. Each iteration is one full call, as the
// model's inference path makes it (the density engine allocates its 4^n
// matrix per call). Merges into BENCH_micro.json like every micro suite.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_micro_main.h"

#include "common/rng.h"
#include "core/ansatz.h"
#include "core/layout.h"
#include "qsim/backend.h"

namespace {

using namespace qugeo;

struct AnsatzFixture {
  qsim::Circuit circuit;
  std::vector<Real> params;

  explicit AnsatzFixture(Index qubits, std::size_t blocks)
      : circuit(build_ansatz(qubits, blocks)) {
    params.resize(circuit.num_params());
    Rng rng(11);
    rng.fill_uniform(params, -1, 1);
  }

  static qsim::Circuit build_ansatz(Index qubits, std::size_t blocks) {
    const core::QubitLayout layout({qubits}, 0);
    core::AnsatzConfig cfg;
    cfg.blocks = blocks;
    return build_qugeo_ansatz(layout, cfg);
  }
};

void run_backend_bench(benchmark::State& state, const qsim::ExecutionConfig& cfg,
                       Index qubits, std::size_t blocks) {
  const AnsatzFixture fx(qubits, blocks);
  for (auto _ : state) {
    const auto probs = qsim::run_probabilities(cfg, fx.circuit, fx.params,
                                               qsim::StateVector(qubits));
    benchmark::DoNotOptimize(probs.data());
  }
  // Throughput in ansatz gate applications per second (trajectory backends
  // replay the circuit once per trajectory).
  const std::size_t replays = cfg.backend == qsim::BackendKind::kTrajectory
                                  ? std::max<std::size_t>(cfg.trajectories, 1)
                                  : 1;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.circuit.num_ops()) *
                          static_cast<std::int64_t>(replays));
  state.counters["gate_ops"] = static_cast<double>(fx.circuit.num_ops());
}

void BM_StatevectorBackendForward(benchmark::State& state) {
  qsim::ExecutionConfig cfg;
  run_backend_bench(state, cfg, static_cast<Index>(state.range(0)), 4);
}
BENCHMARK(BM_StatevectorBackendForward)->Arg(4)->Arg(8);

void BM_DensityBackendForward(benchmark::State& state) {
  qsim::ExecutionConfig cfg;
  cfg.backend = qsim::BackendKind::kDensityMatrix;
  cfg.noise.gate_error_prob = 0.01;
  run_backend_bench(state, cfg, static_cast<Index>(state.range(0)), 4);
}
BENCHMARK(BM_DensityBackendForward)->Arg(4)->Arg(8);

void BM_TrajectoryBackendForward(benchmark::State& state) {
  // Arg = trajectory count on the 8-qubit paper ansatz.
  qsim::ExecutionConfig cfg;
  cfg.backend = qsim::BackendKind::kTrajectory;
  cfg.noise.gate_error_prob = 0.01;
  cfg.trajectories = static_cast<std::size_t>(state.range(0));
  run_backend_bench(state, cfg, 8, 4);
}
BENCHMARK(BM_TrajectoryBackendForward)->Arg(8)->Arg(32);

}  // namespace

QUGEO_BENCH_MICRO_MAIN()
