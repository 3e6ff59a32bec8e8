// Classical CNN baselines: parameter budgets, output ranges, training.
#include <gtest/gtest.h>

#include "core/classical_baseline.h"

namespace qugeo::core {
namespace {

data::ScaledDataset synthetic(std::size_t n, Rng& rng) {
  data::ScaledDataset ds;
  ds.samples.resize(n);
  for (auto& s : ds.samples) {
    s.waveform.resize(ds.waveform_size());
    rng.fill_uniform(s.waveform, -1, 1);
    s.velocity.resize(ds.velocity_size());
    // Learnable structure: row value tracks waveform energy per source row.
    for (std::size_t i = 0; i < 8; ++i) {
      Real m = 0;
      for (std::size_t k = 0; k < 32; ++k)
        m += std::abs(s.waveform[(i % 4) * 64 + k]);
      for (std::size_t j = 0; j < 8; ++j) s.velocity[i * 8 + j] = m / 32.0;
    }
  }
  return ds;
}

TEST(Classical, ParamCountsAreVqcLevel) {
  // The counts Table 2 prints. The paper's CNN-PX and CNN-LY have 634 and
  // 616 parameters against the VQC's 576; ours land at the same
  // few-hundred scale. INet-ref is an unconstrained reference, not in the
  // paper's table.
  Rng rng(1);
  const ClassicalFwiNet px(ClassicalConfig{DecoderKind::kPixel, 4, 8, 8, 8, 8}, rng);
  const ClassicalFwiNet ly(ClassicalConfig{DecoderKind::kLayer, 4, 8, 8, 8, 8}, rng);
  ClassicalConfig inet_cfg{DecoderKind::kPixel, 4, 8, 8, 8, 8};
  inet_cfg.inversion_net_reference = true;
  const ClassicalFwiNet inet(inet_cfg, rng);
  EXPECT_EQ(px.param_count(), 780u);
  EXPECT_EQ(ly.param_count(), 832u);
  EXPECT_EQ(inet.param_count(), 26464u);
}

TEST(Classical, PredictionsInUnitRange) {
  Rng rng(2);
  const ClassicalFwiNet net(ClassicalConfig{DecoderKind::kPixel, 4, 8, 8, 8, 8}, rng);
  Rng drng(3);
  const data::ScaledDataset ds = synthetic(2, drng);
  std::vector<const data::ScaledSample*> ptrs = {&ds.samples[0], &ds.samples[1]};
  const auto preds = net.predict(ptrs);
  ASSERT_EQ(preds.size(), 2u);
  for (const auto& p : preds) {
    ASSERT_EQ(p.size(), 64u);
    for (Real v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Classical, LayerHeadBroadcastsRows) {
  Rng rng(4);
  const ClassicalFwiNet net(ClassicalConfig{DecoderKind::kLayer, 4, 8, 8, 8, 8}, rng);
  Rng drng(5);
  const data::ScaledDataset ds = synthetic(1, drng);
  std::vector<const data::ScaledSample*> ptrs = {&ds.samples[0]};
  const auto preds = net.predict(ptrs);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 1; j < 8; ++j)
      ASSERT_EQ(preds[0][i * 8 + j], preds[0][i * 8]);
}

TEST(Classical, TrainingReducesLoss) {
  Rng drng(6);
  data::ScaledDataset ds = synthetic(24, drng);
  const data::SplitView split = data::split_dataset(24, 18);
  Rng rng(7);
  ClassicalFwiNet net(ClassicalConfig{DecoderKind::kLayer, 4, 8, 8, 8, 8}, rng);
  TrainConfig tc;
  tc.epochs = 30;
  tc.initial_lr = 0.01;
  const TrainResult r = net.train(ds, split, tc);
  EXPECT_LT(r.curve.back().train_loss, r.curve.front().train_loss);
}

TEST(Classical, PixelHeadTrains) {
  Rng drng(8);
  data::ScaledDataset ds = synthetic(16, drng);
  const data::SplitView split = data::split_dataset(16, 12);
  Rng rng(9);
  ClassicalFwiNet net(ClassicalConfig{DecoderKind::kPixel, 4, 8, 8, 8, 8}, rng);
  TrainConfig tc;
  tc.epochs = 20;
  tc.initial_lr = 0.01;
  const TrainResult r = net.train(ds, split, tc);
  EXPECT_LT(r.curve.back().train_loss, r.curve.front().train_loss);
  EXPECT_GT(r.final_ssim, -1.0);
}

}  // namespace
}  // namespace qugeo::core
