// The noise-robustness ablation path: the same QuGeoModel predicts through
// the statevector, density-matrix, and trajectory backends purely via
// ExecutionConfig — no call-site special-casing — and the exact channel
// agrees with its sampled estimator within statistical tolerance.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/model.h"

namespace qugeo::core {
namespace {

data::ScaledSample random_sample(std::size_t wave_size, std::size_t vel_size,
                                 Rng& rng) {
  data::ScaledSample s;
  s.waveform.resize(wave_size);
  s.velocity.resize(vel_size);
  rng.fill_uniform(s.waveform, -1, 1);
  rng.fill_uniform(s.velocity, 0, 1);
  return s;
}

ModelConfig small_config(DecoderKind dec) {
  ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.ansatz.blocks = 2;
  mc.decoder = dec;
  mc.vel_rows = dec == DecoderKind::kLayer ? 3 : 2;
  mc.vel_cols = 2;
  return mc;
}

std::vector<std::vector<Real>> predict_with(QuGeoModel& model,
                                            const qsim::ExecutionConfig& exec,
                                            std::span<const data::ScaledSample* const> ptrs) {
  model.set_execution_config(exec);
  return model.predict(ptrs);
}

TEST(BackendAblation, DensityAtZeroNoiseMatchesStatevectorPredictions) {
  Rng rng(1);
  QuGeoModel model(small_config(DecoderKind::kLayer), rng);
  std::vector<data::ScaledSample> samples;
  for (int i = 0; i < 2; ++i) samples.push_back(random_sample(8, 6, rng));
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  qsim::ExecutionConfig exec;  // statevector
  const auto p_sv = predict_with(model, exec, ptrs);
  exec.backend = qsim::BackendKind::kDensityMatrix;
  const auto p_dm = predict_with(model, exec, ptrs);

  ASSERT_EQ(p_sv.size(), p_dm.size());
  for (std::size_t i = 0; i < p_sv.size(); ++i)
    for (std::size_t k = 0; k < p_sv[i].size(); ++k)
      ASSERT_NEAR(p_sv[i][k], p_dm[i][k], 1e-10);
}

TEST(BackendAblation, ExactAndSampledNoisyPredictionsAgree) {
  // The registered cross-validation: exact depolarizing channel vs. its
  // trajectory estimator, end-to-end through QuGeoModel via ExecutionConfig
  // alone. Pixel decoder too, so both readout forms are covered.
  for (const DecoderKind dec : {DecoderKind::kLayer, DecoderKind::kPixel}) {
    Rng rng(2);
    QuGeoModel model(small_config(dec), rng);
    std::vector<data::ScaledSample> samples;
    const std::size_t vel = dec == DecoderKind::kLayer ? 6 : 4;
    for (int i = 0; i < 2; ++i) samples.push_back(random_sample(8, vel, rng));
    std::vector<const data::ScaledSample*> ptrs;
    for (const auto& s : samples) ptrs.push_back(&s);

    qsim::ExecutionConfig exec;
    exec.noise.gate_error_prob = 0.02;
    exec.backend = qsim::BackendKind::kDensityMatrix;
    const auto p_exact = predict_with(model, exec, ptrs);

    exec.backend = qsim::BackendKind::kTrajectory;
    exec.trajectories = 3000;
    exec.seed = 4242;
    const auto p_traj = predict_with(model, exec, ptrs);

    ASSERT_EQ(p_exact.size(), p_traj.size());
    for (std::size_t i = 0; i < p_exact.size(); ++i)
      for (std::size_t k = 0; k < p_exact[i].size(); ++k)
        ASSERT_NEAR(p_exact[i][k], p_traj[i][k], 0.05)
            << "decoder " << static_cast<int>(dec);
  }
}

TEST(BackendAblation, NoiseShiftsPredictionsAwayFromNoiseless) {
  // Sanity direction check: a strong exact channel must move the decoded
  // maps (otherwise the config is not actually reaching the backend).
  Rng rng(3);
  QuGeoModel model(small_config(DecoderKind::kLayer), rng);
  const data::ScaledSample s = random_sample(8, 6, rng);
  const std::vector<const data::ScaledSample*> ptrs = {&s};

  qsim::ExecutionConfig exec;
  const auto clean = predict_with(model, exec, ptrs);
  exec.backend = qsim::BackendKind::kDensityMatrix;
  exec.noise.gate_error_prob = 0.2;
  const auto noisy = predict_with(model, exec, ptrs);

  Real diff = 0;
  for (std::size_t k = 0; k < clean[0].size(); ++k)
    diff += std::abs(clean[0][k] - noisy[0][k]);
  EXPECT_GT(diff, 1e-4);
}

TEST(BackendAblation, TrainingGradientsStayOnAdjointPath) {
  // loss_and_gradient is documented to use the exact statevector + adjoint
  // pass regardless of the inference backend; it must keep working (and
  // produce identical gradients) with a noisy backend configured.
  Rng rng(4);
  QuGeoModel model(small_config(DecoderKind::kLayer), rng);
  std::vector<data::ScaledSample> samples = {random_sample(8, 6, rng)};
  const std::vector<const data::ScaledSample*> ptrs = {&samples[0]};

  std::vector<Real> g_clean(model.num_params(), Real(0));
  const Real l_clean = model.loss_and_gradient(ptrs, g_clean);

  qsim::ExecutionConfig exec;
  exec.backend = qsim::BackendKind::kTrajectory;
  exec.noise.gate_error_prob = 0.1;
  exec.trajectories = 4;
  model.set_execution_config(exec);
  std::vector<Real> g_noisy(model.num_params(), Real(0));
  const Real l_noisy = model.loss_and_gradient(ptrs, g_noisy);

  EXPECT_EQ(l_clean, l_noisy);
  for (std::size_t k = 0; k < g_clean.size(); ++k)
    EXPECT_EQ(g_clean[k], g_noisy[k]);
}

/// Exact-statevector and sampled readout configs for `model`, regardless of
/// any QUGEO_BACKEND / QUGEO_SHOTS smoke-leg override applied at
/// construction: these tests compare sampled estimates against the exact
/// decode.
struct ReadoutPair {
  qsim::ExecutionConfig exact;
  qsim::ExecutionConfig sampled;
};

ReadoutPair readout_pair(const QuGeoModel& model, std::uint64_t seed) {
  ReadoutPair r{model.execution_config(), {}};
  r.exact.backend = qsim::BackendKind::kStatevector;
  r.exact.shots = 0;
  r.sampled = r.exact;
  r.sampled.shots = 200000;
  r.sampled.seed = seed;
  return r;
}

TEST(BackendAblation, PredictionConvergesToExactDecoder) {
  Rng rng(7);
  QuGeoModel model(small_config(DecoderKind::kLayer), rng);
  const data::ScaledSample s = random_sample(8, 6, rng);
  const data::ScaledSample* chunk[] = {&s};

  const ReadoutPair r = readout_pair(model, Rng(8).next_u64());
  const auto exact = model.predict_with(chunk, r.exact)[0];
  const auto sampled = model.predict_with(chunk, r.sampled)[0];
  for (std::size_t k = 0; k < exact.size(); ++k)
    EXPECT_NEAR(sampled[k], exact[k], 0.02) << "pixel " << k;
}

TEST(BackendAblation, BatchedAndPixelModelsSampleToo) {
  // Every decoder and QuBatch size reads out through the same
  // ExecutionConfig path: sampled predictions converge to the exact decode
  // for a batched layer model and an unbatched pixel model.
  Rng rng(9);
  data::ScaledSample s;
  s.waveform.assign(8, 0.5);
  s.velocity.assign(6, 0.5);
  const data::ScaledSample* chunk[] = {&s};
  Rng shot_rng(10);

  ModelConfig batched;
  batched.group_data_qubits = {3};
  batched.batch_log2 = 1;
  batched.ansatz.blocks = 1;
  batched.vel_rows = 3;
  batched.vel_cols = 2;
  const QuGeoModel mb(batched, rng);
  const ReadoutPair rb = readout_pair(mb, shot_rng.next_u64());
  const auto exact_b = mb.predict_with(chunk, rb.exact)[0];
  const auto sampled_b = mb.predict_with(chunk, rb.sampled)[0];
  for (std::size_t k = 0; k < exact_b.size(); ++k)
    EXPECT_NEAR(sampled_b[k], exact_b[k], 0.02) << "batched pixel " << k;

  ModelConfig px;
  px.group_data_qubits = {3};
  px.ansatz.blocks = 1;
  px.decoder = DecoderKind::kPixel;
  px.vel_rows = 2;
  px.vel_cols = 2;
  const QuGeoModel mp(px, rng);
  const ReadoutPair rp = readout_pair(mp, shot_rng.next_u64());
  const auto exact_p = mp.predict_with(chunk, rp.exact)[0];
  const auto sampled_p = mp.predict_with(chunk, rp.sampled)[0];
  for (std::size_t k = 0; k < exact_p.size(); ++k)
    EXPECT_NEAR(sampled_p[k], exact_p[k], 0.02) << "pixel-decoder pixel " << k;
}

TEST(BackendAblation, EnvOverrideReachesModelConstruction) {
  ::setenv("QUGEO_BACKEND", "trajectory", 1);
  Rng rng(5);
  const QuGeoModel model(small_config(DecoderKind::kLayer), rng);
  ::unsetenv("QUGEO_BACKEND");
  EXPECT_EQ(model.execution_config().backend, qsim::BackendKind::kTrajectory);
}

}  // namespace
}  // namespace qugeo::core
