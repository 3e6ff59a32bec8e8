// QuGeoData scalers: output shapes, normalization, D-Sample vs Q-D-FW
// behaviour, CNN compressor training.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/math_utils.h"
#include "data/cnn_scaler.h"
#include "data/scaling.h"
#include "metrics/image_metrics.h"

namespace qugeo::data {
namespace {

/// A small raw dataset (reduced grid and trace count) for fast tests.
RawDataset small_raw(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  seismic::FlatVelConfig vcfg;
  vcfg.nz = 35;
  vcfg.nx = 35;
  seismic::Acquisition acq;
  acq.num_sources = 5;
  acq.num_receivers = 35;
  acq.num_time_samples = 200;
  return generate_raw_dataset(count, vcfg, acq, rng);
}

TEST(VelocityScaling, NormalizedToUnitInterval) {
  Rng rng(1);
  const auto m = seismic::generate_flatvel(seismic::FlatVelConfig{}, rng);
  const auto v = scale_velocity_map(m, 8, 8);
  ASSERT_EQ(v.size(), 64u);
  for (Real x : v) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(VelocityScaling, RowsStayConstantForFlatModels) {
  Rng rng(2);
  const auto m = seismic::generate_flatvel(seismic::FlatVelConfig{}, rng);
  const auto v = scale_velocity_map(m, 8, 8);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 1; j < 8; ++j)
      ASSERT_EQ(v[i * 8 + j], v[i * 8]) << "row " << i;
}

TEST(VelocityNormalization, RoundTrip) {
  for (Real v : {1500.0, 2700.0, 4500.0})
    EXPECT_NEAR(denormalize_velocity(normalize_velocity(v)), v, 1e-9);
  EXPECT_NEAR(normalize_velocity(1500.0), 0.0, 1e-12);
  EXPECT_NEAR(normalize_velocity(4500.0), 1.0, 1e-12);
}

TEST(DSample, ProducesTargetShape) {
  const RawDataset raw = small_raw(2, 10);
  const DSampleScaler scaler;
  const ScaledSample s = scaler.scale(raw.samples[0]);
  EXPECT_EQ(s.waveform.size(), 256u);
  EXPECT_EQ(s.velocity.size(), 64u);
}

TEST(DSample, PicksValuesFromRawVolume) {
  // With the time gain disabled, every D-Sample waveform value must
  // literally exist in the raw volume (pure nearest-neighbour picking).
  const RawDataset raw = small_raw(1, 11);
  ScaleTarget target;
  target.time_gain_power = 0;
  const DSampleScaler scaler(target);
  const ScaledSample s = scaler.scale(raw.samples[0]);
  const auto& rawdata = raw.samples[0].seismic.data();
  for (Real v : s.waveform) {
    bool found = false;
    for (Real r : rawdata)
      if (r == v) {
        found = true;
        break;
      }
    ASSERT_TRUE(found);
  }
}

TEST(QdFw, ProducesPhysicallyCoherentData) {
  const RawDataset raw = small_raw(1, 12);
  const ForwardModelScaler scaler;
  const ScaledSample s = scaler.scale(raw.samples[0]);
  EXPECT_EQ(s.waveform.size(), 256u);
  Real peak = 0;
  for (Real v : s.waveform) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 0.0);
}

TEST(QdFw, DistinguishesVelocityModels) {
  const RawDataset raw = small_raw(2, 13);
  const ForwardModelScaler scaler;
  auto a = scaler.scale(raw.samples[0]).waveform;
  auto b = scaler.scale(raw.samples[1]).waveform;
  normalize_l2(a);
  normalize_l2(b);
  Real diff = 0;
  for (std::size_t k = 0; k < a.size(); ++k) diff += std::abs(a[k] - b[k]);
  EXPECT_GT(diff, 1e-6);
}

TEST(ScaleDataset, AppliesToAllSamples) {
  const RawDataset raw = small_raw(3, 14);
  const DSampleScaler scaler;
  const ScaledDataset ds = scaler.scale_dataset(raw, ScaleTarget{});
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.scaler_name, "D-Sample");
  EXPECT_EQ(ds.waveform_size(), 256u);
  EXPECT_EQ(ds.velocity_size(), 64u);
}

TEST(CnnScaler, TrainsAndCompresses) {
  const RawDataset raw = small_raw(6, 15);
  CnnScalerConfig ccfg;
  ccfg.epochs = 30;
  Rng rng(99);
  const CnnScaler scaler = train_cnn_scaler(raw, ScaleTarget{}, ccfg, rng);
  EXPECT_GT(scaler.param_count(), 1000u);

  const ScaledSample s = scaler.scale(raw.samples[0]);
  EXPECT_EQ(s.waveform.size(), 256u);
  EXPECT_EQ(s.velocity.size(), 64u);
}

TEST(CnnScaler, ApproximatesPhysicsGuidedTarget) {
  // After training, CNN output should be much closer to the Q-D-FW waveform
  // than an untrained network's output would be (correlation with target).
  const RawDataset raw = small_raw(8, 16);
  CnnScalerConfig ccfg;
  ccfg.epochs = 60;
  Rng rng(7);
  const CnnScaler scaler = train_cnn_scaler(raw, ScaleTarget{}, ccfg, rng);

  const ForwardModelScaler reference;
  Real corr_sum = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto pred = scaler.scale(raw.samples[i]).waveform;
    auto target = reference.scale(raw.samples[i]).waveform;
    normalize_l2(pred);
    normalize_l2(target);
    Real dot = 0;
    for (std::size_t k = 0; k < pred.size(); ++k) dot += pred[k] * target[k];
    corr_sum += dot;
  }
  EXPECT_GT(corr_sum / static_cast<Real>(raw.size()), 0.5);
}

TEST(CnnScaler, EmptyTrainSetRejected) {
  RawDataset empty;
  Rng rng(1);
  EXPECT_THROW((void)train_cnn_scaler(empty, ScaleTarget{}, CnnScalerConfig{}, rng),
               std::invalid_argument);
  CnnTrainingSet ragged;
  ragged.picks.resize(2);
  ragged.targets.resize(1);
  EXPECT_THROW((void)train_cnn_scaler(std::move(ragged), ScaleTarget{},
                                      CnnScalerConfig{}, rng),
               std::invalid_argument);
}

bool same_bits(const std::vector<Real>& a, const std::vector<Real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0;
}

/// The volume of only the shots a target_nsrc-shot target reads, as the
/// corpus build models it.
seismic::SeismicData picked_volume(const seismic::SeismicData& full,
                                   std::size_t target_nsrc) {
  const std::vector<std::size_t> picked =
      picked_sources(full.nsrc(), std::min(target_nsrc, full.nsrc()));
  seismic::SeismicData out(picked.size(), full.nt(), full.nrec());
  for (std::size_t k = 0; k < picked.size(); ++k) {
    const auto shot = full.shot_span(picked[k]);
    const auto at = static_cast<std::ptrdiff_t>(k * shot.size());
    std::copy(shot.begin(), shot.end(), out.data_mut().begin() + at);
  }
  return out;
}

TEST(CnnScaler, KeptPickScalesAsTheFullVolume) {
  // The corpus build keeps each map's unscaled pick of its picked shots and
  // frees the volume: scaling the pick, the D-Sample sample of the picked
  // shots and a scaler trained from kept picks are all bitwise what the
  // full five-shot volumes give.
  const RawDataset raw = small_raw(3, 17);
  for (std::size_t nsrc : {std::size_t{1}, std::size_t{3}}) {
    ScaleTarget target;
    target.nsrc = nsrc;
    CnnScalerConfig ccfg;
    ccfg.epochs = 3;
    Rng rng(5);
    const CnnScaler scaler = train_cnn_scaler(raw, target, ccfg, rng);

    CnnTrainingSet set;
    for (const RawSample& s : raw.samples) {
      set.picks.push_back(
          cnn_input_pick(picked_volume(s.seismic, nsrc), target, ccfg));
      // Shot by shot, as the corpus build records it.
      for (std::size_t k = 0; k < s.seismic.nsrc(); ++k)
        set.max_abs =
            std::max(set.max_abs, max_abs_amplitude(s.seismic.shot_span(k)));
      set.targets.push_back(ForwardModelScaler(target).scale(s).waveform);
    }
    Rng set_rng(5);
    const CnnScaler from_set =
        train_cnn_scaler(std::move(set), target, ccfg, set_rng);

    const DSampleScaler dsample(target);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const RawSample& full = raw.samples[i];
      const RawSample cut{full.velocity, picked_volume(full.seismic, nsrc)};
      const std::string at =
          "nsrc " + std::to_string(nsrc) + " sample " + std::to_string(i);
      const ScaledSample want = scaler.scale(full);
      const ScaledSample got =
          scaler.scale(cnn_input_pick(cut.seismic, target, ccfg), cut.velocity);
      EXPECT_TRUE(same_bits(got.waveform, want.waveform)) << at;
      EXPECT_TRUE(same_bits(got.velocity, want.velocity)) << at;
      EXPECT_TRUE(same_bits(from_set.scale(full).waveform, want.waveform))
          << at;

      const ScaledSample ds_want = dsample.scale(full);
      const ScaledSample ds_got = dsample.scale(cut);
      EXPECT_TRUE(same_bits(ds_got.waveform, ds_want.waveform)) << at;
      EXPECT_TRUE(same_bits(ds_got.velocity, ds_want.velocity)) << at;
    }
  }
}

TEST(SplitDataset, PartitionsIndices) {
  const SplitView s = split_dataset(10, 7);
  EXPECT_EQ(s.train.size(), 7u);
  EXPECT_EQ(s.test.size(), 3u);
  EXPECT_EQ(s.train.front(), 0u);
  EXPECT_EQ(s.test.front(), 7u);
  EXPECT_THROW((void)split_dataset(5, 6), std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::data
