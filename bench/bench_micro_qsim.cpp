// Microbenchmarks of the quantum-simulation substrate: gate application,
// full QuGeoVQC ansatz execution, adjoint gradients, encoder synthesis —
// the quantities behind the QuBatch complexity argument (Sec. 3.3.3).
//
// The binary doubles as a CI perf gate: after the benchmark run, main()
// exits non-zero when one adjoint_backward on the paper's ansatz costs more
// than 5x one run_circuit (the single-pass sweep's budget).
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include <cstdio>

#include "common/rng.h"
#include "core/ansatz.h"
#include "core/encoder.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"
#include "qsim/observables.h"

namespace {

using namespace qugeo;

void BM_Apply1QGate(benchmark::State& state) {
  const auto qubits = static_cast<Index>(state.range(0));
  qsim::StateVector psi(qubits);
  const qsim::Mat2 h = qsim::gate_matrix(qsim::GateKind::kH, {});
  Index q = 0;
  for (auto _ : state) {
    psi.apply_1q(h, q);
    q = (q + 1) % qubits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.dim()));
}
BENCHMARK(BM_Apply1QGate)->Arg(8)->Arg(10)->Arg(12)->Arg(16)->Arg(20);

void BM_ApplyControlledGate(benchmark::State& state) {
  const auto qubits = static_cast<Index>(state.range(0));
  qsim::StateVector psi(qubits);
  const Real params[] = {0.3, 0.7, -0.4};
  const qsim::Mat2 u = qsim::gate_matrix(qsim::GateKind::kCU3, params);
  for (auto _ : state) psi.apply_controlled_1q(u, 0, qubits - 1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.dim()));
}
BENCHMARK(BM_ApplyControlledGate)->Arg(8)->Arg(12)->Arg(16);

void BM_QuGeoAnsatzForward(benchmark::State& state) {
  const auto blocks = static_cast<std::size_t>(state.range(0));
  const core::QubitLayout layout({8}, 0);
  core::AnsatzConfig cfg;
  cfg.blocks = blocks;
  const qsim::Circuit c = build_qugeo_ansatz(layout, cfg);
  std::vector<Real> params(c.num_params());
  Rng rng(1);
  rng.fill_uniform(params, -1, 1);
  for (auto _ : state) {
    qsim::StateVector psi(8);
    qsim::run_circuit(c, params, psi);
    benchmark::DoNotOptimize(psi.amplitudes().data());
  }
  // Throughput in ansatz gate applications per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.num_ops()));
  state.counters["params"] = static_cast<double>(c.num_params());
}
BENCHMARK(BM_QuGeoAnsatzForward)->Arg(4)->Arg(12)->Arg(24);

void BM_AdjointGradient(benchmark::State& state) {
  const auto blocks = static_cast<std::size_t>(state.range(0));
  const core::QubitLayout layout({8}, 0);
  core::AnsatzConfig cfg;
  cfg.blocks = blocks;
  const qsim::Circuit c = build_qugeo_ansatz(layout, cfg);
  std::vector<Real> params(c.num_params());
  Rng rng(2);
  rng.fill_uniform(params, -1, 1);
  std::vector<Real> g(256);
  rng.fill_uniform(g, -1, 1);
  for (auto _ : state) {
    qsim::StateVector psi(8);
    qsim::run_circuit(c, params, psi);
    const auto cot = qsim::cotangent_from_probability_grads(psi, g);
    const auto adj = qsim::adjoint_backward(c, params, std::move(psi), cot);
    benchmark::DoNotOptimize(adj.param_grads.data());
  }
  // One gradient = forward + reversal sweep; count parameters differentiated
  // per second so the rate is comparable across block counts.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.num_params()));
  state.counters["params"] = static_cast<double>(c.num_params());
}
BENCHMARK(BM_AdjointGradient)->Arg(4)->Arg(12)->Arg(24);

void BM_QuBatchForward(benchmark::State& state) {
  // The Sec. 3.3.3 claim in silico: processing 2^N samples in one circuit
  // costs one 2^(8+N)-dim execution instead of 2^N separate 2^8-dim runs.
  const auto batch_log2 = static_cast<Index>(state.range(0));
  const core::QubitLayout layout({8}, batch_log2);
  core::AnsatzConfig cfg;
  const qsim::Circuit c = build_qugeo_ansatz(layout, cfg);
  std::vector<Real> params(c.num_params());
  Rng rng(3);
  rng.fill_uniform(params, -1, 1);

  std::vector<Real> sample(256);
  rng.fill_uniform(sample, -1, 1);
  std::vector<const std::vector<Real>*> batch(layout.batch_size(), &sample);
  const core::StEncoder encoder(layout);

  for (auto _ : state) {
    qsim::StateVector psi = encoder.encode(batch);
    qsim::run_circuit(c, params, psi);
    benchmark::DoNotOptimize(psi.amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(layout.batch_size()));
}
BENCHMARK(BM_QuBatchForward)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_StatePrepSynthesis(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<Real> data(std::size_t{1} << qubits);
  rng.fill_uniform(data, -1, 1);
  for (auto _ : state) {
    const qsim::Circuit c = qsim::state_prep_circuit(data);
    benchmark::DoNotOptimize(c.num_ops());
  }
  // Amplitudes synthesized per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_StatePrepSynthesis)->Arg(4)->Arg(8)->Arg(10);

void BM_MarginalProbabilities(benchmark::State& state) {
  qsim::StateVector psi(static_cast<Index>(state.range(0)));
  Rng rng(5);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  qsim::encode_amplitudes(data, psi);
  const std::vector<Index> qubits = {0, 1, 2, 3, 4, 5};
  for (auto _ : state) {
    auto m = psi.marginal_probabilities(qubits);
    benchmark::DoNotOptimize(m.data());
  }
  // Amplitudes folded into the marginal per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.dim()));
}
BENCHMARK(BM_MarginalProbabilities)->Arg(8)->Arg(12)->Arg(16);

/// CI perf gate: on the paper's 8-qubit, 12-block ansatz one
/// adjoint_backward must cost at most 5x one run_circuit. The single-pass
/// sweep visits each trainable gate's index pairs once; a sweep that goes
/// back to one pass per parameter slot lands near 11x.
int adjoint_cost_guard() {
  const core::QubitLayout layout({8}, 0);
  core::AnsatzConfig cfg;
  cfg.blocks = 12;
  const qsim::Circuit c = build_qugeo_ansatz(layout, cfg);
  std::vector<Real> params(c.num_params());
  Rng rng(23);
  rng.fill_uniform(params, -1, 1);
  std::vector<Real> g(256);
  rng.fill_uniform(g, -1, 1);
  qsim::StateVector psi_out(8);
  qsim::run_circuit(c, params, psi_out);
  const auto cot = qsim::cotangent_from_probability_grads(psi_out, g);

  constexpr int kIters = 200;
  constexpr double kMaxRatio = 5.0;
  const auto forward = [&] {
    qsim::StateVector psi(8);
    qsim::run_circuit(c, params, psi);
    benchmark::DoNotOptimize(psi.amplitudes().data());
  };
  const auto backward = [&] {
    const auto adj = qsim::adjoint_backward(c, params, psi_out, cot);
    benchmark::DoNotOptimize(adj.param_grads.data());
  };

  bench::best_of_ms(kIters, backward);  // warm caches/pages before measuring
  const double forward_ms = bench::best_of_ms(kIters, forward);
  const double backward_ms = bench::best_of_ms(kIters, backward);
  const double ratio = backward_ms / forward_ms;
  std::printf(
      "adjoint cost guard: 8q/12-block ansatz, %d x run_circuit %.3f ms, "
      "%d x adjoint_backward %.3f ms (%.2fx, need <= %.1fx)\n",
      kIters, forward_ms, kIters, backward_ms, ratio, kMaxRatio);
  if (ratio > kMaxRatio) {
    std::fprintf(stderr, "adjoint cost guard FAILED: %.2fx > allowed %.1fx\n",
                 ratio, kMaxRatio);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = qugeo::bench::run_micro_benchmarks(argc, argv);
  if (rc != 0) return rc;
  return adjoint_cost_guard();
}
