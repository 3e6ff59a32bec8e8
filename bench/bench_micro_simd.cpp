// Microbenchmarks of the explicit SIMD layer: the scalar vs AVX2
// single-state 1q kernel. Merges into BENCH_micro.json like every micro
// suite.
//
// The binary doubles as the CI perf gate for QUGEO_SIMD: after the
// benchmark run, main() times the paper's 8-qubit, 12-block ansatz forward
// (run_circuit) and its adjoint sweep (adjoint_backward) under scalar and
// AVX2 dispatch, and exits non-zero on AVX2 hardware unless each runs
// >= 1.5x faster under AVX2. On machines without AVX2+FMA the guard prints
// a skip notice and passes.
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include <cstdio>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/ansatz.h"
#include "qsim/executor.h"
#include "qsim/gate.h"
#include "qsim/observables.h"
#include "qsim/statevector.h"

namespace {

using namespace qugeo;

/// Mixing 1q matrix (all four entries nonzero) so no fast path hides the
/// kernel under test.
qsim::Mat2 test_u3() { return qsim::u3_matrix(0.7, -0.3, 1.1); }

void bench_apply_1q(benchmark::State& state, simd::SimdMode mode) {
  if (mode == simd::SimdMode::kAvx2 && !simd::cpu_supports_avx2()) {
    state.SkipWithError("AVX2+FMA not supported on this CPU");
    return;
  }
  const simd::ScopedSimdMode scoped(mode);
  const auto qubits = static_cast<Index>(state.range(0));
  qsim::StateVector psi(qubits);
  const qsim::Mat2 u = test_u3();
  Index q = 0;
  for (auto _ : state) {
    psi.apply_1q(u, q);
    q = (q + 1) % qubits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.dim()));
}

void BM_SimdApply1QScalar(benchmark::State& state) {
  bench_apply_1q(state, simd::SimdMode::kScalar);
}
BENCHMARK(BM_SimdApply1QScalar)->Arg(12)->Arg(16);

void BM_SimdApply1QAvx2(benchmark::State& state) {
  bench_apply_1q(state, simd::SimdMode::kAvx2);
}
BENCHMARK(BM_SimdApply1QAvx2)->Arg(12)->Arg(16);

/// CI perf gate for the SIMD layer, on the circuit the training and serving
/// workloads run: AVX2 dispatch must make both the ansatz forward and its
/// adjoint sweep >= 1.5x faster than scalar dispatch.
int simd_speedup_guard() {
  if (!simd::cpu_supports_avx2()) {
    std::printf(
        "simd guard: AVX2+FMA unavailable on this CPU; skipping the "
        "speedup gate\n");
    return 0;
  }
  const core::QubitLayout layout({8}, 0);
  core::AnsatzConfig cfg;
  cfg.blocks = 12;
  const qsim::Circuit c = core::build_qugeo_ansatz(layout, cfg);
  std::vector<Real> params(c.num_params());
  Rng rng(24);
  rng.fill_uniform(params, -1, 1);
  std::vector<Real> g(256);
  rng.fill_uniform(g, -1, 1);
  qsim::StateVector psi_out(8);
  qsim::run_circuit(c, params, psi_out);
  const auto cot = qsim::cotangent_from_probability_grads(psi_out, g);

  constexpr int kIters = 200;
  constexpr double kRequired = 1.5;
  const auto forward = [&] {
    qsim::StateVector psi(8);
    qsim::run_circuit(c, params, psi);
    benchmark::DoNotOptimize(psi.amplitudes().data());
  };
  const auto backward = [&] {
    const auto adj = qsim::adjoint_backward(c, params, psi_out, cot);
    benchmark::DoNotOptimize(adj.param_grads.data());
  };
  struct Times {
    double forward_ms;
    double backward_ms;
  };
  const auto time_at = [&](simd::SimdMode mode) {
    const simd::ScopedSimdMode scoped(mode);
    bench::best_of_ms(kIters, backward);  // warm caches/pages before measuring
    const double forward_ms = bench::best_of_ms(kIters, forward);
    return Times{forward_ms, bench::best_of_ms(kIters, backward)};
  };
  const Times scalar = time_at(simd::SimdMode::kScalar);
  const Times avx2 = time_at(simd::SimdMode::kAvx2);
  const double forward_x = scalar.forward_ms / avx2.forward_ms;
  const double adjoint_x = scalar.backward_ms / avx2.backward_ms;
  std::printf(
      "simd guard: 8q/12-block ansatz, %d x run_circuit scalar %.3f ms, avx2 "
      "%.3f ms (%.2fx); %d x adjoint_backward scalar %.3f ms, avx2 %.3f ms "
      "(%.2fx); need >= %.2fx each\n",
      kIters, scalar.forward_ms, avx2.forward_ms, forward_x, kIters,
      scalar.backward_ms, avx2.backward_ms, adjoint_x, kRequired);
  if (forward_x < kRequired || adjoint_x < kRequired) {
    std::fprintf(stderr,
                 "simd guard FAILED: forward %.2fx, adjoint %.2fx; need >= "
                 "%.2fx each\n",
                 forward_x, adjoint_x, kRequired);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = qugeo::bench::run_micro_benchmarks(argc, argv);
  if (rc != 0) return rc;
  return simd_speedup_guard();
}
