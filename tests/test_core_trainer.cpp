// Training loop: loss decreases on a learnable synthetic task, evaluation
// metrics behave, QuBatch trains, and the per-chunk gradient fold is
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/trainer.h"

namespace qugeo::core {
namespace {

/// Synthetic learnable dataset: targets depend deterministically on the
/// waveform (row velocity = mean of a waveform slice), so a trained model
/// must beat its untrained self.
data::ScaledDataset synthetic_dataset(std::size_t n, std::size_t wave_size,
                                      std::size_t rows, std::size_t cols,
                                      Rng& rng) {
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

ModelConfig tiny_model(DecoderKind dec, Index batch_log2 = 0) {
  ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.batch_log2 = batch_log2;
  mc.ansatz.blocks = 3;
  mc.decoder = dec;
  mc.vel_rows = dec == DecoderKind::kLayer ? 3 : 2;
  mc.vel_cols = 2;
  return mc;
}

TEST(Trainer, LossDecreases) {
  Rng rng(1);
  data::ScaledDataset ds = synthetic_dataset(24, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(24, 18);

  Rng init(2);
  QuGeoModel model(tiny_model(DecoderKind::kLayer), init);
  TrainConfig tc;
  tc.epochs = 30;
  tc.initial_lr = 0.05;
  const TrainResult r = train_model(model, ds, split, tc);
  ASSERT_EQ(r.curve.size(), 30u);
  EXPECT_LT(r.curve.back().train_loss, r.curve.front().train_loss * 0.8);
}

TEST(Trainer, SsimImprovesOverTraining) {
  Rng rng(3);
  data::ScaledDataset ds = synthetic_dataset(24, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(24, 18);
  Rng init(4);
  QuGeoModel model(tiny_model(DecoderKind::kLayer), init);
  TrainConfig tc;
  tc.epochs = 40;
  tc.initial_lr = 0.05;
  const TrainResult r = train_model(model, ds, split, tc);
  EXPECT_GT(r.final_ssim, r.curve.front().test_ssim);
  EXPECT_LT(r.final_mse, r.curve.front().test_mse);
}

TEST(Trainer, PixelDecoderTrains) {
  Rng rng(5);
  data::ScaledDataset ds = synthetic_dataset(16, 8, 2, 2, rng);
  const data::SplitView split = data::split_dataset(16, 12);
  Rng init(6);
  QuGeoModel model(tiny_model(DecoderKind::kPixel), init);
  TrainConfig tc;
  tc.epochs = 30;
  tc.initial_lr = 0.05;
  const TrainResult r = train_model(model, ds, split, tc);
  EXPECT_LT(r.curve.back().train_loss, r.curve.front().train_loss);
}

TEST(Trainer, QuBatchTrains) {
  Rng rng(7);
  data::ScaledDataset ds = synthetic_dataset(16, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(16, 12);
  Rng init(8);
  QuGeoModel model(tiny_model(DecoderKind::kLayer, 1), init);
  EXPECT_EQ(model.batch_size(), 2u);
  TrainConfig tc;
  tc.epochs = 25;
  tc.initial_lr = 0.05;
  const TrainResult r = train_model(model, ds, split, tc);
  EXPECT_LT(r.curve.back().train_loss, r.curve.front().train_loss);
}

TEST(Trainer, DeterministicGivenSeeds) {
  Rng rng(9);
  data::ScaledDataset ds = synthetic_dataset(12, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(12, 9);
  TrainConfig tc;
  tc.epochs = 5;

  Rng i1(10), i2(10);
  QuGeoModel m1(tiny_model(DecoderKind::kLayer), i1);
  QuGeoModel m2(tiny_model(DecoderKind::kLayer), i2);
  const TrainResult r1 = train_model(m1, ds, split, tc);
  const TrainResult r2 = train_model(m2, ds, split, tc);
  for (std::size_t e = 0; e < 5; ++e)
    EXPECT_EQ(r1.curve[e].train_loss, r2.curve[e].train_loss);
}

// ------------------------------------------------- per-chunk gradient fold --

/// One full training run from fixed seeds.
struct RunOutput {
  TrainResult result;
  std::vector<Real> params;
};

RunOutput fixed_seed_run() {
  Rng rng(9);
  data::ScaledDataset ds = synthetic_dataset(12, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(12, 9);
  TrainConfig tc;
  tc.epochs = 4;
  tc.initial_lr = 0.05;
  tc.chunks_per_step = 4;
  Rng init(10);
  QuGeoModel model(tiny_model(DecoderKind::kLayer), init);
  RunOutput out{train_model(model, ds, split, tc), model.parameters()};
  return out;
}

void expect_identical_runs(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.result.curve.size(), b.result.curve.size());
  for (std::size_t e = 0; e < a.result.curve.size(); ++e) {
    EXPECT_EQ(a.result.curve[e].train_loss, b.result.curve[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(a.result.curve[e].test_ssim, b.result.curve[e].test_ssim)
        << "epoch " << e;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t k = 0; k < a.params.size(); ++k)
    EXPECT_EQ(a.params[k], b.params[k]) << "param " << k;
}

TEST(TrainerSharding, BitIdenticalAcrossThreadCounts) {
  // Each chunk of a group owns one gradient slot and the slots fold in
  // chunk order, never in pool order: 1, 2 and 4 workers must produce the
  // same bits.
  const std::size_t before = num_threads();
  set_num_threads(1);
  const RunOutput t1 = fixed_seed_run();
  set_num_threads(2);
  const RunOutput t2 = fixed_seed_run();
  set_num_threads(4);
  const RunOutput t4 = fixed_seed_run();
  set_num_threads(before);
  expect_identical_runs(t1, t2);
  expect_identical_runs(t1, t4);
}

TEST(Evaluate, PerfectPredictionScoresOne) {
  Rng rng(11);
  data::ScaledDataset ds = synthetic_dataset(4, 8, 3, 2, rng);
  const std::vector<std::size_t> idx = {0, 1, 2, 3};
  std::vector<std::vector<Real>> preds;
  for (std::size_t i : idx) preds.push_back(ds.samples[i].velocity);
  const EvalMetrics m = evaluate_predictions(preds, ds, idx);
  EXPECT_NEAR(m.ssim, 1.0, 1e-9);
  EXPECT_NEAR(m.mse, 0.0, 1e-12);
}

TEST(Evaluate, EmptyIndicesGiveZero) {
  Rng rng(12);
  data::ScaledDataset ds = synthetic_dataset(2, 8, 3, 2, rng);
  const EvalMetrics m = evaluate_predictions({}, ds, {});
  EXPECT_EQ(m.ssim, 0.0);
  EXPECT_EQ(m.mse, 0.0);
}

}  // namespace
}  // namespace qugeo::core
