// Microbenchmarks of the explicit SIMD layer: the scalar vs AVX2
// single-state 1q and dense 2q kernels. Merges into BENCH_micro.json like
// every micro suite.
//
// The binary doubles as the CI perf gate (mirroring bench_micro_fusion's
// fusion guard): after the benchmark run, main() re-times the dense 2q
// kernel directly and exits non-zero on AVX2 hardware unless the AVX2
// kernel is >= 1.5x the pre-SIMD scalar kernel. On machines without
// AVX2+FMA the guard prints a skip notice and passes.
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include <chrono>
#include <cstdio>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "qsim/gate.h"
#include "qsim/statevector.h"

namespace {

using namespace qugeo;

/// Mixing 1q matrix (all four entries nonzero) so no fast path hides the
/// kernel under test.
qsim::Mat2 test_u3() { return qsim::u3_matrix(0.7, -0.3, 1.1); }

/// Dense 4x4 with all sixteen entries nonzero: U3 (x) U3 composed with a
/// SWAP-like mixing — built directly so the benchmark needs no fusion pass.
qsim::Mat4 test_dense4() {
  const qsim::Mat2 a = qsim::u3_matrix(0.4, -0.8, 1.1);
  const qsim::Mat2 b = qsim::u3_matrix(-0.9, 0.3, 0.5);
  qsim::Mat4 m{};
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      m.m[r * 4 + c] = a(r / 2, c % 2) * b(r % 2, c / 2);
  return m;
}

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

void bench_apply_matrix2q(benchmark::State& state, simd::SimdMode mode) {
  if (mode == simd::SimdMode::kAvx2 && !simd::cpu_supports_avx2()) {
    state.SkipWithError("AVX2+FMA not supported on this CPU");
    return;
  }
  const simd::ScopedSimdMode scoped(mode);
  const auto qubits = static_cast<Index>(state.range(0));
  qsim::StateVector psi(qubits);
  const qsim::Mat4 u = test_dense4();
  Index q = 0;
  for (auto _ : state) {
    psi.apply_matrix2q(u, q, (q + 1) % qubits);
    q = (q + 1) % qubits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.dim()));
}

void BM_SimdApplyMatrix2QScalar(benchmark::State& state) {
  bench_apply_matrix2q(state, simd::SimdMode::kScalar);
}
BENCHMARK(BM_SimdApplyMatrix2QScalar)->Arg(12)->Arg(16);

void BM_SimdApplyMatrix2QAvx2(benchmark::State& state) {
  bench_apply_matrix2q(state, simd::SimdMode::kAvx2);
}
BENCHMARK(BM_SimdApplyMatrix2QAvx2)->Arg(12)->Arg(16);

/// CI perf gate for the SIMD layer. Best-of-R timing of K kernel sweeps,
/// the same shape as bench_micro_fusion's fusion_speedup_guard.
int simd_speedup_guard() {
  if (!simd::cpu_supports_avx2()) {
    std::printf(
        "simd guard: AVX2+FMA unavailable on this CPU; skipping the "
        "speedup gate\n");
    return 0;
  }
  using clock = std::chrono::steady_clock;
  constexpr int kReps = 5;
  const auto best_of = [&](auto&& body) {
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = clock::now();
      body();
      const std::chrono::duration<double, std::milli> dt = clock::now() - t0;
      best = std::min(best, dt.count());
    }
    return best;
  };

  // Gate 1: dense 2q AVX2 >= 1.5x scalar on a 14-qubit register.
  const qsim::Mat4 u4 = test_dense4();
  qsim::StateVector psi(14);
  constexpr int kIters2Q = 200;
  const auto sweep_2q = [&] {
    Index q = 0;
    for (int it = 0; it < kIters2Q; ++it) {
      psi.apply_matrix2q(u4, q, (q + 1) % 14);
      q = (q + 1) % 14;
    }
    benchmark::DoNotOptimize(psi.amplitudes().data());
  };
  double scalar_2q_ms = 0;
  double avx2_2q_ms = 0;
  {
    const simd::ScopedSimdMode scoped(simd::SimdMode::kScalar);
    best_of(sweep_2q);  // warm caches/pages before the measured passes
    scalar_2q_ms = best_of(sweep_2q);
  }
  {
    const simd::ScopedSimdMode scoped(simd::SimdMode::kAvx2);
    best_of(sweep_2q);
    avx2_2q_ms = best_of(sweep_2q);
  }
  const double speedup_2q = scalar_2q_ms / avx2_2q_ms;
  std::printf(
      "simd guard: dense 2q on 14 qubits, scalar %.3f ms, avx2 %.3f ms "
      "(%.2fx, need >= 1.50x)\n",
      scalar_2q_ms, avx2_2q_ms, speedup_2q);

  if (speedup_2q < 1.5) {
    std::fprintf(stderr,
                 "simd guard FAILED: dense 2q avx2 speedup %.2fx < 1.50x\n",
                 speedup_2q);
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
