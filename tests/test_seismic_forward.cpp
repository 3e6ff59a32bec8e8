// Forward-modelling drivers: acquisition shapes, survey geometry, the
// physics-guided remodel path used by Q-D-FW.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "seismic/forward_modeling.h"

namespace qugeo::seismic {
namespace {

TEST(Survey, ReceiverLineSpreadsEvenly) {
  const ReceiverLine line = make_receiver_line(70, 8);
  ASSERT_EQ(line.count(), 8u);
  EXPECT_EQ(line.ix.front(), 0u);
  EXPECT_EQ(line.ix.back(), 69u);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_GT(line.ix[i], line.ix[i - 1]);
}

TEST(Survey, SingleReceiverCentered) {
  const ReceiverLine line = make_receiver_line(70, 1);
  EXPECT_EQ(line.ix[0], 35u);
}

TEST(Survey, SourceLineValidation) {
  EXPECT_THROW((void)make_source_line(10, 0), std::invalid_argument);
  EXPECT_THROW((void)make_source_line(10, 11), std::invalid_argument);
}

TEST(Survey, SeismicDataLayoutIsSourceMajor) {
  SeismicData d(2, 3, 4);
  d.at(1, 2, 3) = 7.0;
  EXPECT_EQ(d.data()[(1 * 3 + 2) * 4 + 3], 7.0);
  const auto shot1 = d.shot_span(1);
  EXPECT_EQ(shot1.size(), 12u);
  EXPECT_EQ(shot1[2 * 4 + 3], 7.0);
}

TEST(Survey, SetShotValidatesShape) {
  SeismicData d(2, 3, 4);
  EXPECT_THROW(d.set_shot(0, ShotGather(3, 5)), std::invalid_argument);
  EXPECT_THROW(d.set_shot(2, ShotGather(3, 4)), std::out_of_range);
  EXPECT_THROW((void)d.shot_span(2), std::out_of_range);
}

TEST(Acquisition, OpenFwiShape) {
  const Acquisition acq = openfwi_acquisition();
  EXPECT_EQ(acq.num_sources, 5u);
  EXPECT_EQ(acq.num_receivers, 70u);
  EXPECT_EQ(acq.num_time_samples, 1000u);
  EXPECT_EQ(acq.wavelet_freq_hz, 15.0);
}

TEST(Acquisition, QuantumShapeIs256Values) {
  const Acquisition acq = quantum_acquisition();
  EXPECT_EQ(acq.num_sources * acq.num_time_samples * acq.num_receivers, 256u);
  EXPECT_EQ(acq.wavelet_freq_hz, 8.0);  // the 15 -> 8 Hz adjustment
}

TEST(ModelShots, ProducesRequestedVolume) {
  Rng rng(4);
  FlatVelConfig vcfg;
  vcfg.nz = 30;
  vcfg.nx = 30;
  const VelocityModel m = generate_flatvel(vcfg, rng);
  Acquisition acq;
  acq.num_sources = 3;
  acq.num_receivers = 10;
  acq.num_time_samples = 50;
  acq.wavelet_freq_hz = 12.0;
  const SeismicData d = model_shots(m, acq);
  EXPECT_EQ(d.nsrc(), 3u);
  EXPECT_EQ(d.nt(), 50u);
  EXPECT_EQ(d.nrec(), 10u);
  // The field must actually be non-trivial.
  Real peak = 0;
  for (Real v : d.data()) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 0.0);
}

TEST(ModelShots, DifferentSourcesProduceDifferentShots) {
  Rng rng(5);
  FlatVelConfig vcfg;
  vcfg.nz = 30;
  vcfg.nx = 30;
  const VelocityModel m = generate_flatvel(vcfg, rng);
  Acquisition acq;
  acq.num_sources = 2;
  acq.num_receivers = 6;
  acq.num_time_samples = 64;
  const SeismicData d = model_shots(m, acq);
  Real diff = 0;
  for (std::size_t t = 0; t < d.nt(); ++t)
    for (std::size_t r = 0; r < d.nrec(); ++r)
      diff += std::abs(d.at(0, t, r) - d.at(1, t, r));
  EXPECT_GT(diff, 0.0);
}

TEST(PhysicsRemodel, ProducesQuantumScaleData) {
  Rng rng(6);
  const VelocityModel m = generate_flatvel(FlatVelConfig{}, rng);
  const Acquisition acq = quantum_acquisition();
  const SeismicData d = physics_guided_remodel(m, 8, 8, acq, 8);
  EXPECT_EQ(d.size(), 256u);
  Real peak = 0;
  for (Real v : d.data()) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 0.0);
}

TEST(PhysicsRemodel, SensitiveToVelocityModel) {
  // Different subsurfaces must give different quantum-scale gathers —
  // otherwise the learning task would be vacuous.
  Rng rng(7);
  const VelocityModel m1 = generate_flatvel(FlatVelConfig{}, rng);
  const VelocityModel m2 = generate_flatvel(FlatVelConfig{}, rng);
  const Acquisition acq = quantum_acquisition();
  const SeismicData d1 = physics_guided_remodel(m1, 8, 8, acq);
  const SeismicData d2 = physics_guided_remodel(m2, 8, 8, acq);
  Real diff = 0;
  for (std::size_t k = 0; k < d1.size(); ++k)
    diff += std::abs(d1.data()[k] - d2.data()[k]);
  EXPECT_GT(diff, 0.0);
}

TEST(PhysicsRemodel, RefineZeroRejected) {
  Rng rng(8);
  const VelocityModel m = generate_flatvel(FlatVelConfig{}, rng);
  EXPECT_THROW((void)physics_guided_remodel(m, 8, 8, quantum_acquisition(), 0),
               std::invalid_argument);
}

Acquisition small_acquisition() {
  Acquisition acq;
  acq.num_sources = 2;
  acq.num_receivers = 6;
  acq.num_time_samples = 40;
  return acq;
}

// Regression inputs: each of these used to hang in the substep search
// (zero spacing, a negative velocity, no time samples) or return an
// all-NaN volume (a NaN velocity, a NaN Ricker frequency).
TEST(ModelShots, RejectsZeroGridSpacing) {
  EXPECT_THROW((void)model_shots(VelocityModel(Grid2D{12, 12, 0, 10}, 2000.0),
                                 small_acquisition()),
               std::invalid_argument);
}

TEST(ModelShots, RejectsNegativeVelocity) {
  EXPECT_THROW((void)model_shots(VelocityModel(Grid2D{12, 12, 10, 10}, -2000.0),
                                 small_acquisition()),
               std::invalid_argument);
}

TEST(ModelShots, RejectsNanVelocity) {
  VelocityModel m(Grid2D{12, 12, 10, 10}, 2000.0);
  m.at(6, 6) = std::nan("");
  EXPECT_THROW((void)model_shots(m, small_acquisition()), std::invalid_argument);
}

TEST(ModelShots, RejectsNanWaveletFrequency) {
  Acquisition acq = small_acquisition();
  acq.wavelet_freq_hz = std::nan("");
  EXPECT_THROW((void)model_shots(VelocityModel(Grid2D{12, 12, 10, 10}, 2000.0), acq),
               std::invalid_argument);
}

TEST(ModelShots, RejectsZeroTimeSamples) {
  Acquisition acq = small_acquisition();
  acq.num_time_samples = 0;
  EXPECT_THROW((void)model_shots(VelocityModel(Grid2D{12, 12, 10, 10}, 2000.0), acq),
               std::invalid_argument);
}

TEST(ModelShots, SubstepsAreTheSmallestThatFitTheCflBound) {
  // The closed-form start of the substep search must land on the count the
  // plain upward search finds, so every valid model keeps its nt and dt.
  const Acquisition acq = small_acquisition();
  const RickerWavelet wavelet(acq.wavelet_freq_hz);
  for (Real c : {1500.0, 2345.6, 4500.0})
    for (Real h : {2.5, 7.0, 10.0, 25.0}) {
      const VelocityModel m(Grid2D{10, 10, h, h}, c);
      const Real dt_limit = Real(0.9) * max_stable_dt(m, acq.fdtd.space_order);
      std::size_t substeps = 1;
      while (1.0 / static_cast<Real>(acq.num_time_samples * substeps) > dt_limit)
        ++substeps;
      FdtdConfig cfg = acq.fdtd;
      cfg.nt = acq.num_time_samples * substeps;
      cfg.dt = 1.0 / static_cast<Real>(cfg.nt);
      cfg.record_every = substeps;
      const ReceiverLine rec = make_receiver_line(m.nx(), acq.num_receivers);
      const auto sources = make_source_line(m.nx(), acq.num_sources);
      const SeismicData d = model_shots(m, acq);
      for (std::size_t s = 0; s < sources.size(); ++s) {
        const ShotGather g = simulate_shot(m, sources[s], wavelet, rec, cfg);
        const auto got = d.shot_span(s);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), g.data().begin()))
            << "c " << c << " h " << h << " shot " << s;
      }
    }
}

TEST(ModelShots, PoolWorkersKeepTheCallersSimdOverride) {
  // Under a thread-local ScopedSimdMode every shot, including those the
  // pool's workers run, must dispatch at the forced level.
  Rng rng(9);
  FlatVelConfig vcfg;
  vcfg.nz = 24;
  vcfg.nx = 24;
  const VelocityModel m = generate_flatvel(vcfg, rng);
  Acquisition acq = small_acquisition();
  acq.num_sources = 5;
  set_num_threads(4);
  const simd::SimdLevel global = simd::active_level();
  simd::set_global_simd_mode(simd::SimdMode::kScalar);
  const SeismicData all_scalar = model_shots(m, acq);
  simd::set_global_simd_mode(simd::SimdMode::kAuto);  // AVX2 where supported
  const SeismicData scoped = [&] {
    const simd::ScopedSimdMode forced(simd::SimdMode::kScalar);
    return model_shots(m, acq);
  }();
  simd::set_global_simd_mode(global == simd::SimdLevel::kAvx2
                                 ? simd::SimdMode::kAvx2
                                 : simd::SimdMode::kScalar);
  set_num_threads(0);
  ASSERT_EQ(scoped.size(), all_scalar.size());
  for (std::size_t s = 0; s < acq.num_sources; ++s) {
    const auto a = scoped.shot_span(s), b = all_scalar.shot_span(s);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "shot " << s;
  }
}

TEST(PhysicsRemodel, RejectsZeroTargetSize) {
  // A 0-row target used to dereference the maximum of an empty model.
  Rng rng(10);
  const VelocityModel m = generate_flatvel(FlatVelConfig{}, rng);
  EXPECT_THROW((void)physics_guided_remodel(m, 0, 8, quantum_acquisition()),
               std::invalid_argument);
  EXPECT_THROW((void)physics_guided_remodel(m, 8, 0, quantum_acquisition()),
               std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::seismic
