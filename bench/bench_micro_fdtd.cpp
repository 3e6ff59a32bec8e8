// Microbenchmarks of the seismic substrate: FDTD throughput vs grid size
// and stencil order, the two acquisition scales of QuGeoData, the raw
// corpus build's shot fan-out, and the whole cached corpus build. FDTD
// rows count cell updates of the computational grid: the model plus its
// sponge pads, which the solver updates every step like the model's own
// cells.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "bench_micro_main.h"

#include "common/logging.h"
#include "common/rng.h"
#include "data/cache.h"
#include "data/dataset.h"
#include "seismic/forward_modeling.h"

namespace {

using namespace qugeo;

/// Cells of the computational grid one step of `cfg` updates over an
/// nz x nx model (the stencil halo is never updated, so it is left out).
std::int64_t computational_cells(std::size_t nz, std::size_t nx,
                                 const seismic::FdtdConfig& cfg) {
  const std::size_t top = cfg.free_surface_top ? 0 : cfg.sponge_width;
  return static_cast<std::int64_t>((nz + top + cfg.sponge_width) *
                                   (nx + 2 * cfg.sponge_width));
}

void BM_FdtdStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int order = static_cast<int>(state.range(1));
  const seismic::VelocityModel m(seismic::Grid2D{n, n, 10, 10}, 3000.0);
  seismic::FdtdConfig cfg;
  cfg.space_order = order;
  cfg.dt = 0.8 * seismic::max_stable_dt(m, order);
  cfg.nt = 50;
  const seismic::RickerWavelet w(15.0);
  const seismic::ReceiverLine rec = seismic::make_receiver_line(n, 8);
  for (auto _ : state) {
    const auto g = seismic::simulate_shot(m, {0, n / 2}, w, rec, cfg);
    benchmark::DoNotOptimize(g.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 50 *
                          computational_cells(n, n, cfg));
}
BENCHMARK(BM_FdtdStep)
    ->Args({70, 2})
    ->Args({70, 4})
    ->Args({70, 8})
    ->Args({140, 4});

void BM_FullScaleShot(benchmark::State& state) {
  // One OpenFWI-scale shot: 70x70 grid, 1000 steps, 70 receivers.
  Rng rng(1);
  const auto m = seismic::generate_flatvel(seismic::FlatVelConfig{}, rng);
  const seismic::Acquisition acq = seismic::openfwi_acquisition();
  seismic::FdtdConfig cfg = acq.fdtd;
  cfg.dt = 1e-3;
  cfg.nt = 1000;
  const seismic::RickerWavelet w(acq.wavelet_freq_hz);
  const seismic::ReceiverLine rec = seismic::make_receiver_line(70, 70);
  for (auto _ : state) {
    const auto g = seismic::simulate_shot(m, {0, 35}, w, rec, cfg);
    benchmark::DoNotOptimize(g.data().data());
  }
  // Cell updates per second of the 94x94 computational grid, all steps.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.nt) *
                          computational_cells(70, 70, cfg));
}
BENCHMARK(BM_FullScaleShot)->Unit(benchmark::kMillisecond);

void BM_RawCorpus(benchmark::State& state) {
  // generate_raw_dataset of 4 OpenFWI samples: 4 FlatVel draws, then all
  // 20 full-scale shots in one pool fan-out.
  constexpr std::size_t kSamples = 4;
  const seismic::FlatVelConfig vel_cfg;
  const seismic::Acquisition acq = seismic::openfwi_acquisition();
  Rng rng(4);
  for (auto _ : state) {
    const data::RawDataset raw =
        data::generate_raw_dataset(kSamples, vel_cfg, acq, rng);
    benchmark::DoNotOptimize(raw.samples.data());
  }
  // Raw samples (velocity map plus 5 shot gathers) per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
}
// The corpus rows discard 0.5 s of warm-up: after an idle pause the
// process's first fan-outs run ~3x slow and would set the iteration count
// (2 iterations). Google Benchmark 1.7 honours a benchmark's own warm-up
// only when it sets MinTime too; 0.5 s is the default min time.
BENCHMARK(BM_RawCorpus)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(0.5)
    ->MinWarmUpTime(0.5);

void BM_ExperimentCorpus(benchmark::State& state) {
  // load_or_build_experiment_data on a cache miss: 4 + 1 OpenFWI maps (the
  // corpus maps model the shot their scalers read, the Q-D-CNN training map
  // all 5), 25 scaler epochs, the default target, and the six cache writes.
  namespace fs = std::filesystem;
  data::ExperimentDataConfig cfg;
  cfg.num_samples = 4;
  cfg.train_count = 3;
  cfg.cnn_train_samples = 1;
  cfg.cnn.epochs = 25;
  const fs::path root = fs::temp_directory_path() / "qugeo_bm_corpus";
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);  // the build logs each cache miss
  std::size_t run = 0;
  for (auto _ : state) {
    cfg.cache_dir = root / std::to_string(run++);  // always a cache miss
    const data::ExperimentData d = data::load_or_build_experiment_data(cfg);
    benchmark::DoNotOptimize(d.qdcnn.samples.data());
  }
  set_log_level(saved);
  fs::remove_all(root);
  // Raw samples (corpus plus Q-D-CNN training maps) built per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.num_samples +
                                                    cfg.cnn_train_samples));
}
BENCHMARK(BM_ExperimentCorpus)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(0.5)
    ->MinWarmUpTime(0.5);

void BM_QuantumScaleRemodel(benchmark::State& state) {
  // The Q-D-FW scaling path for one sample (Sec. 3.1.1).
  Rng rng(2);
  const auto m = seismic::generate_flatvel(seismic::FlatVelConfig{}, rng);
  const seismic::Acquisition acq = seismic::quantum_acquisition();
  std::size_t values = 0;
  for (auto _ : state) {
    const auto d = seismic::physics_guided_remodel(m, 8, 8, acq, 8);
    benchmark::DoNotOptimize(d.data().data());
    values = d.data().size();
  }
  // Remodeled data values (shots x receivers x samples) produced per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values));
}
BENCHMARK(BM_QuantumScaleRemodel)->Unit(benchmark::kMillisecond);

void BM_FlatVelGeneration(benchmark::State& state) {
  Rng rng(3);
  const seismic::FlatVelConfig cfg;
  for (auto _ : state) {
    const auto m = seismic::generate_flatvel(cfg, rng);
    benchmark::DoNotOptimize(m.data().data());
  }
  // Velocity-model cells generated per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.nz * cfg.nx));
}
BENCHMARK(BM_FlatVelGeneration);

}  // namespace

QUGEO_BENCH_MICRO_MAIN()
