// Thread-pool contract tests: full coverage of the iteration space, inline
// nested execution — and the end-to-end guarantee the pool was designed
// around: train_model, whose gradient slots fold in fixed order, is
// bit-identical for QUGEO_THREADS=1 and QUGEO_THREADS=4.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "core/trainer.h"

namespace qugeo {
namespace {

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  set_num_threads(0);  // restore the env/default configuration
}

TEST(Parallel, ChunksRunUnderTheSubmittersSimdOverride) {
  // Whichever thread runs a chunk dispatches at the submitting thread's
  // ScopedSimdMode level. On an AVX2 host one of the two modes differs
  // from the process-global level, whatever QUGEO_SIMD says.
  set_num_threads(4);
  const auto levels_seen = [] {
    std::vector<simd::SimdLevel> seen(64);
    parallel_for(0, seen.size(), [&](std::size_t i) {
      // Long enough that the workers wake and claim chunks of their own.
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      seen[i] = simd::active_level();
    });
    return seen;
  };
  for (simd::SimdMode mode : {simd::SimdMode::kScalar, simd::SimdMode::kAuto}) {
    const simd::ScopedSimdMode scoped(mode);
    const simd::SimdLevel want = simd::active_level();
    for (simd::SimdLevel got : levels_seen())
      EXPECT_EQ(got, want) << simd::simd_mode_name(mode);
  }
  // Without an override the workers fall back to the global level again.
  const simd::SimdLevel global = simd::active_level();
  for (simd::SimdLevel got : levels_seen()) EXPECT_EQ(got, global);
  set_num_threads(0);
}

TEST(Parallel, EmptyAndSingleRanges) {
  set_num_threads(4);
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
  set_num_threads(0);
}

TEST(Parallel, NestedCallsRunInline) {
  set_num_threads(4);
  std::vector<std::atomic<int>> hits(64 * 16);
  parallel_for(0, 64, [&](std::size_t outer) {
    // Inner fan-out must not deadlock against the pool it runs on.
    parallel_for(0, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  set_num_threads(0);
}

TEST(Parallel, SubmitterRunsFirstIteration) {
  // Iteration `begin` runs on the submitting thread whatever the workers
  // do. The fan-outs run back to back, so a worker still waking from the
  // previous one can race the submitter for the next one's first claim.
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    set_num_threads(threads);
    for (std::size_t rep = 0; rep < 200; ++rep) {
      const std::size_t begin = rep % 3;
      std::thread::id first_on;
      parallel_for(begin, begin + 4, [&](std::size_t i) {
        if (i == begin) first_on = std::this_thread::get_id();
      });
      ASSERT_EQ(first_on, caller) << threads << " threads, fan-out " << rep;
    }
    // A nested fan-out runs inline, in index order, on the thread that
    // submits it.
    std::vector<std::vector<std::size_t>> order(8);
    std::vector<int> on_submitter(8, 0);
    parallel_for(0, 8, [&](std::size_t outer) {
      const std::thread::id submitter = std::this_thread::get_id();
      int same = 1;
      parallel_for(10, 14, [&](std::size_t inner) {
        same &= static_cast<int>(std::this_thread::get_id() == submitter);
        order[outer].push_back(inner);
      });
      on_submitter[outer] = same;
    });
    for (std::size_t outer = 0; outer < order.size(); ++outer) {
      EXPECT_EQ(order[outer], (std::vector<std::size_t>{10, 11, 12, 13}))
          << threads << " threads, outer " << outer;
      EXPECT_EQ(on_submitter[outer], 1)
          << threads << " threads, outer " << outer;
    }
  }
  set_num_threads(0);
}

TEST(Parallel, ThreadsClaimOneIterationAtATime) {
  // 20 iterations on 4 threads: iterations 0-3 must run at once on four
  // threads, so they meet at a 4-party rendezvous. A thread that claimed
  // two iterations together would hold one of them back behind the other,
  // and the wait would time out with fewer than four arrived.
  set_num_threads(4);
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  std::vector<int> met(4, 0);
  parallel_for(0, 20, [&](std::size_t i) {
    if (i >= 4) return;
    std::unique_lock lk(m);
    ++arrived;
    cv.notify_all();
    met[i] = cv.wait_for(lk, std::chrono::seconds(5),
                         [&] { return arrived == 4; });
  });
  set_num_threads(0);
  EXPECT_EQ(arrived, 4);
  EXPECT_EQ(met, (std::vector<int>{1, 1, 1, 1}));
}

TEST(Parallel, ExceptionsPropagateAndPoolSurvives) {
  set_num_threads(4);
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must be fully quiesced and reusable after the throw.
  std::vector<std::atomic<int>> hits(100);
  parallel_for(0, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  set_num_threads(0);
}

TEST(Parallel, ResizeWhileWorkersSpinThenBackToBackFanOuts) {
  // Right after a fan-out the workers poll for the next one before they
  // block; resizing the pool then must stop and restart them cleanly.
  // Back-to-back small fan-outs then hand off through that poll, and each
  // must still run every iteration exactly once.
  const auto tiny_fan_out = [] {
    std::atomic<int> calls{0};
    parallel_for(0, 4, [&](std::size_t) { calls.fetch_add(1); });
    return calls.load();
  };
  for (std::size_t threads : {std::size_t{4}, std::size_t{2}, std::size_t{3},
                              std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    ASSERT_EQ(tiny_fan_out(), 4) << threads << " threads";
  }
  constexpr std::size_t kFanOuts = 1000;
  std::vector<std::array<std::atomic<int>, 4>> hits(kFanOuts);
  for (std::size_t f = 0; f < kFanOuts; ++f)
    parallel_for(0, 4, [&](std::size_t i) {
      hits[f][i].fetch_add(1, std::memory_order_relaxed);
    });
  set_num_threads(0);
  for (std::size_t f = 0; f < kFanOuts; ++f)
    for (std::size_t i = 0; i < 4; ++i)
      ASSERT_EQ(hits[f][i].load(), 1) << "fan-out " << f << ", index " << i;
}

std::uint64_t bits_of(Real v) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Small learnable dataset in the style of test_core_trainer.cpp: targets
/// depend deterministically on the waveform.
data::ScaledDataset tiny_dataset(std::size_t n, Rng& rng) {
  constexpr std::size_t kWave = 8, kRows = 3, kCols = 2;
  data::ScaledDataset ds;
  ds.scaler_name = "synthetic";
  ds.nsrc = 1;
  ds.nt = 1;
  ds.nrec = kWave;
  ds.vel_rows = kRows;
  ds.vel_cols = kCols;
  ds.samples.resize(n);
  for (auto& s : ds.samples) {
    s.waveform.resize(kWave);
    rng.fill_uniform(s.waveform, -1, 1);
    s.velocity.resize(kRows * kCols);
    const std::size_t chunk = kWave / kRows;
    for (std::size_t i = 0; i < kRows; ++i) {
      Real m = 0;
      for (std::size_t k = 0; k < chunk; ++k)
        m += std::abs(s.waveform[i * chunk + k]);
      const Real v = m / static_cast<Real>(chunk);
      for (std::size_t j = 0; j < kCols; ++j) s.velocity[i * kCols + j] = v;
    }
  }
  return ds;
}

TEST(Parallel, TrainModelBitIdenticalAcrossThreadCounts) {
  // The full training loop — QuBatch chunk fan-out in the gradient
  // accumulation plus parallel prediction in the per-epoch eval — must
  // produce bit-identical parameters and curves for 1 vs 4 threads.
  Rng data_rng(21);
  const data::ScaledDataset ds = tiny_dataset(12, data_rng);
  const data::SplitView split = data::split_dataset(12, 8);

  core::TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.initial_lr = 0.05;
  tcfg.chunks_per_step = 2;

  std::vector<std::vector<Real>> runs;
  std::vector<std::vector<core::EpochRecord>> curves;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    core::ModelConfig mcfg;
    mcfg.group_data_qubits = {3};
    mcfg.ansatz.blocks = 2;
    mcfg.vel_rows = 3;
    mcfg.vel_cols = 2;
    Rng init_rng(23);
    core::QuGeoModel model(mcfg, init_rng);
    const core::TrainResult r = core::train_model(model, ds, split, tcfg);
    runs.push_back(model.parameters());
    curves.push_back(r.curve);
  }
  set_num_threads(0);

  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t k = 0; k < runs[0].size(); ++k)
    EXPECT_EQ(bits_of(runs[0][k]), bits_of(runs[1][k])) << "param " << k;
  ASSERT_EQ(curves[0].size(), curves[1].size());
  for (std::size_t e = 0; e < curves[0].size(); ++e) {
    EXPECT_EQ(bits_of(curves[0][e].train_loss), bits_of(curves[1][e].train_loss));
    EXPECT_EQ(bits_of(curves[0][e].test_mse), bits_of(curves[1][e].test_mse));
    EXPECT_EQ(bits_of(curves[0][e].test_ssim), bits_of(curves[1][e].test_ssim));
  }
}

}  // namespace
}  // namespace qugeo
