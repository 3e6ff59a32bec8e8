// Microbenchmarks of the training loop: one full train_model epoch (the
// data-parallel per-chunk gradient accumulation on the shared pool). Merges
// into BENCH_micro.json like every micro suite.
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include <cmath>

#include "common/rng.h"
#include "core/trainer.h"

namespace {

using namespace qugeo;

/// Synthetic learnable dataset (same construction as the trainer tests):
/// row velocity = mean |waveform| of a slice, so the task is non-trivial
/// but cheap to generate.
data::ScaledDataset synthetic_dataset(std::size_t n,
                                            std::size_t wave_size,
                                            std::size_t rows,
                                            std::size_t cols, Rng& rng) {
  data::ScaledDataset ds;
  ds.scaler_name = "synthetic";
  ds.nsrc = 1;
  ds.nt = 1;
  ds.nrec = wave_size;
  ds.vel_rows = rows;
  ds.vel_cols = cols;
  ds.samples.resize(n);
  for (auto& s : ds.samples) {
    s.waveform.resize(wave_size);
    rng.fill_uniform(s.waveform, -1, 1);
    s.velocity.resize(rows * cols);
    const std::size_t chunk = wave_size / rows;
    for (std::size_t i = 0; i < rows; ++i) {
      Real m = 0;
      for (std::size_t k = 0; k < chunk; ++k)
        m += std::abs(s.waveform[i * chunk + k]);
      const Real v = m / static_cast<Real>(chunk);
      for (std::size_t j = 0; j < cols; ++j) s.velocity[i * cols + j] = v;
    }
  }
  return ds;
}

core::ModelConfig tiny_model() {
  core::ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.ansatz.blocks = 3;
  mc.decoder = core::DecoderKind::kLayer;
  mc.vel_rows = 3;
  mc.vel_cols = 2;
  return mc;
}

void BM_TrainEpoch(benchmark::State& state) {
  // One full training epoch per iteration.
  Rng rng(61);
  const data::ScaledDataset ds = synthetic_dataset(32, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(32, 24);
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.initial_lr = 0.05;
  tc.chunks_per_step = 24;  // one accumulation group spanning the epoch
  tc.log_every = 0;
  for (auto _ : state) {
    Rng init(62);
    core::QuGeoModel model(tiny_model(), init);
    const core::TrainResult result = core::train_model(model, ds, split, tc);
    benchmark::DoNotOptimize(result.final_mse);
  }
  // Samples trained per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(split.train.size()));
}
BENCHMARK(BM_TrainEpoch);

}  // namespace

QUGEO_BENCH_MICRO_MAIN()
