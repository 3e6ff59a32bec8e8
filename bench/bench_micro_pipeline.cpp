// Microbenchmarks of the learning pipeline: one training step (forward +
// adjoint backward + Adam) for each decoder and QuBatch size, one training
// epoch of each CNN baseline, and SSIM evaluation throughput.
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include "core/classical_baseline.h"
#include "core/model.h"
#include "metrics/image_metrics.h"

namespace {

using namespace qugeo;

data::ScaledSample random_sample(Rng& rng) {
  data::ScaledSample s;
  s.waveform.resize(256);
  s.velocity.resize(64);
  rng.fill_uniform(s.waveform, -1, 1);
  rng.fill_uniform(s.velocity, 0, 1);
  return s;
}

void BM_VqcTrainStep(benchmark::State& state) {
  const auto decoder = state.range(0) == 0 ? core::DecoderKind::kPixel
                                           : core::DecoderKind::kLayer;
  const auto batch_log2 = static_cast<Index>(state.range(1));
  core::ModelConfig mc;
  mc.decoder = decoder;
  mc.batch_log2 = batch_log2;
  Rng rng(1);
  core::QuGeoModel model(mc, rng);

  std::vector<data::ScaledSample> samples;
  for (Index i = 0; i < model.batch_size(); ++i)
    samples.push_back(random_sample(rng));
  std::vector<const data::ScaledSample*> chunk;
  for (const auto& s : samples) chunk.push_back(&s);
  std::vector<Real> grads(model.num_params());

  for (auto _ : state) {
    std::fill(grads.begin(), grads.end(), Real(0));
    const Real loss = model.loss_and_gradient(chunk, grads);
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.batch_size()));
}
BENCHMARK(BM_VqcTrainStep)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Unit(benchmark::kMicrosecond);

void BM_VqcPredict(benchmark::State& state) {
  core::ModelConfig mc;
  mc.decoder = core::DecoderKind::kLayer;
  Rng rng(2);
  core::QuGeoModel model(mc, rng);
  const data::ScaledSample s = random_sample(rng);
  const data::ScaledSample* chunk[] = {&s};
  for (auto _ : state) {
    auto preds = model.predict(chunk);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VqcPredict)->Unit(benchmark::kMicrosecond);

/// Arg 0 = CNN-PX, 1 = CNN-LY, 2 = INet-ref (pixel head): Table 2's three
/// classical rows.
void BM_CnnBaselineStep(benchmark::State& state) {
  Rng rng(3);
  core::ClassicalConfig cc;
  cc.decoder = state.range(0) == 1 ? core::DecoderKind::kLayer
                                   : core::DecoderKind::kPixel;
  cc.inversion_net_reference = state.range(0) == 2;
  core::ClassicalFwiNet net(cc, rng);
  data::ScaledDataset ds;
  ds.samples.push_back(random_sample(rng));
  ds.samples.push_back(random_sample(rng));
  const data::SplitView split = data::split_dataset(2, 1);
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.initial_lr = 0.01;
  for (auto _ : state) {
    const auto r = net.train(ds, split, tc);
    benchmark::DoNotOptimize(r.final_mse);
  }
  // Samples trained per second (one epoch over the dataset per iteration).
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.samples.size()));
}
BENCHMARK(BM_CnnBaselineStep)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_Ssim8x8(benchmark::State& state) {
  Rng rng(4);
  std::vector<Real> a(64), b(64);
  rng.fill_uniform(a, 0, 1);
  rng.fill_uniform(b, 0, 1);
  metrics::SsimOptions opts;
  opts.data_range = 1.0;
  for (auto _ : state) {
    const Real s = metrics::ssim(a, b, 8, 8, opts);
    benchmark::DoNotOptimize(s);
  }
  // Pixels compared per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Ssim8x8);

void BM_SsimLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<Real> a(n * n), b(n * n);
  rng.fill_uniform(a, 0, 1);
  rng.fill_uniform(b, 0, 1);
  for (auto _ : state) {
    const Real s = metrics::ssim(a, b, n, n, {});
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_SsimLarge)->Arg(70)->Arg(256);

}  // namespace

QUGEO_BENCH_MICRO_MAIN()
