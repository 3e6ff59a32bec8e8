// Microbenchmarks of the quantum-simulation substrate: gate application,
// full QuGeoVQC ansatz execution, adjoint gradients, encoder synthesis —
// the quantities behind the QuBatch complexity argument (Sec. 3.3.3).
//
// The binary doubles as two CI perf gates. After the benchmark run, main()
// re-times the frozen-heavy adjoint gradient with and without the plan and
// exits non-zero below 1.3x — the speedup the fused training path is built
// to deliver on frozen-heavy shapes. It also exits non-zero when one
// adjoint_backward on the paper's ansatz costs more than 5x one
// run_circuit (the single-pass sweep's budget).
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include <chrono>
#include <cstdio>

#include "common/rng.h"
#include "core/ansatz.h"
#include "core/encoder.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"
#include "qsim/gradient_plan.h"
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

void BM_DiagonalHeavyCircuit(benchmark::State& state) {
  // Phase-only workload: RZ/Z/S/T layers with a CZ ring — the gate mix the
  // diagonal fast path targets (no amplitude mixing at all).
  const auto qubits = static_cast<Index>(state.range(0));
  qsim::Circuit c(qubits);
  auto p = c.new_params(static_cast<std::uint32_t>(4 * qubits));
  std::uint32_t next = p.id;
  for (int layer = 0; layer < 4; ++layer) {
    for (Index q = 0; q < qubits; ++q) c.rz(q, qsim::ParamRef{next++});
    for (Index q = 0; q < qubits; ++q) {
      c.z(q);
      c.s(q);
      c.t(q);
    }
    for (Index q = 0; q + 1 < qubits; ++q) c.cz(q, q + 1);
  }
  std::vector<Real> params(c.num_params());
  Rng rng(6);
  rng.fill_uniform(params, -1, 1);
  qsim::StateVector psi(qubits);
  for (Index q = 0; q < qubits; ++q)
    psi.apply_1q(qsim::gate_matrix(qsim::GateKind::kH, {}), q);
  for (auto _ : state) {
    qsim::run_circuit(c, params, psi);
    benchmark::DoNotOptimize(psi.amplitudes_mut().data());
  }
  // Throughput in gate applications per second (each touching O(dim) amps).
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.num_ops()));
  state.counters["gate_ops"] = static_cast<double>(c.num_ops());
}
BENCHMARK(BM_DiagonalHeavyCircuit)->Arg(8)->Arg(12)->Arg(16);

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

/// Transfer-learning shape: each block carries the paper's full U3+CU3
/// layer with FROZEN (literal) angles plus one trainable RY — the
/// frozen-heavy regime where GradientPlan's literal-segment fusion pays
/// (the all-trainable ansatz above is plan-invariant by design).
qsim::Circuit frozen_heavy_ansatz(Index qubits, std::size_t blocks,
                                  std::uint64_t seed) {
  Rng rng(seed);
  qsim::Circuit c(qubits);
  const auto p = c.new_params(static_cast<std::uint32_t>(blocks));
  for (std::size_t b = 0; b < blocks; ++b) {
    for (Index q = 0; q < qubits; ++q)
      c.u3(q, rng.uniform(-kPi, kPi), rng.uniform(-kPi, kPi),
           rng.uniform(-kPi, kPi));
    for (Index q = 0; q + 1 < qubits; ++q)
      c.cu3(q, q + 1, rng.uniform(-kPi, kPi), rng.uniform(-kPi, kPi),
            rng.uniform(-kPi, kPi));
    c.ry(0, qsim::ParamRef{p.id + static_cast<std::uint32_t>(b)});
  }
  return c;
}

void BM_AdjointGradientFrozenHeavy(benchmark::State& state) {
  // Arg 0 = verbatim op stream (QUGEO_GRAD_FUSION=off), Arg 1 = the
  // gradient-plan form loss_and_gradient executes by default.
  const bool use_plan = state.range(0) != 0;
  const qsim::Circuit source = frozen_heavy_ansatz(8, 12, 21);
  const qsim::GradientPlan plan = qsim::GradientPlan::build(source);
  const qsim::Circuit& c = use_plan ? plan.execution_form(source) : source;
  std::vector<Real> params(source.num_params());
  Rng rng(22);
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
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(source.num_params()));
  state.counters["plan_ops"] = static_cast<double>(c.num_ops());
}
BENCHMARK(BM_AdjointGradientFrozenHeavy)->Arg(0)->Arg(1);

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

/// Best of five wall times, in ms, of `iters` back-to-back calls of `body`.
template <typename Body>
double best_of_ms(int iters, const Body& body) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = clock::now();
    for (int it = 0; it < iters; ++it) body();
    const std::chrono::duration<double, std::milli> dt = clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

/// CI perf gate: the gradient-plan form of the frozen-heavy adjoint
/// gradient must be >= 1.3x faster than the verbatim op stream. Best-of-R
/// timing of K full gradients each (forward + reverse sweep).
int adjoint_fusion_guard() {
  const qsim::Circuit source = frozen_heavy_ansatz(8, 12, 21);
  const qsim::GradientPlan plan = qsim::GradientPlan::build(source);
  const qsim::Circuit& fused = plan.execution_form(source);
  std::vector<Real> params(source.num_params());
  Rng rng(22);
  rng.fill_uniform(params, -1, 1);
  std::vector<Real> g(256);
  rng.fill_uniform(g, -1, 1);

  constexpr int kIters = 60;
  constexpr double kRequiredSpeedup = 1.3;
  const auto best_of = [&](const qsim::Circuit& c) {
    return best_of_ms(kIters, [&] {
      qsim::StateVector psi(8);
      qsim::run_circuit(c, params, psi);
      const auto cot = qsim::cotangent_from_probability_grads(psi, g);
      const auto adj = qsim::adjoint_backward(c, params, std::move(psi), cot);
      benchmark::DoNotOptimize(adj.param_grads.data());
    });
  };

  best_of(source);  // warm caches/pages before the measured passes
  const double unfused_ms = best_of(source);
  const double fused_ms = best_of(fused);
  const double speedup = unfused_ms / fused_ms;
  std::printf(
      "adjoint fusion guard: frozen-heavy 8q/12-block gradient %zu -> %zu "
      "ops, unfused %.3f ms, fused %.3f ms (%.2fx, need >= %.1fx)\n",
      source.num_ops(), fused.num_ops(), unfused_ms, fused_ms, speedup,
      kRequiredSpeedup);
  if (speedup < kRequiredSpeedup) {
    std::fprintf(stderr,
                 "adjoint fusion guard FAILED: %.2fx < required %.1fx\n",
                 speedup, kRequiredSpeedup);
    return 1;
  }
  return 0;
}

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

  best_of_ms(kIters, backward);  // warm caches/pages before measuring
  const double forward_ms = best_of_ms(kIters, forward);
  const double backward_ms = best_of_ms(kIters, backward);
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
  const int fusion_rc = adjoint_fusion_guard();
  const int cost_rc = adjoint_cost_guard();
  return fusion_rc != 0 ? fusion_rc : cost_rc;
}
