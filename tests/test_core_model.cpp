// End-to-end model: parameter bookkeeping, prediction shapes, and the full
// gradient chain (encoder -> ansatz -> decoder -> loss) against finite
// differences.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "core/model.h"
#include "qsim/executor.h"

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

ModelConfig small_config(DecoderKind dec, Index batch_log2 = 0) {
  ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.batch_log2 = batch_log2;
  mc.ansatz.blocks = 2;
  mc.decoder = dec;
  mc.vel_rows = dec == DecoderKind::kLayer ? 3 : 2;
  mc.vel_cols = dec == DecoderKind::kLayer ? 2 : 2;
  return mc;
}

TEST(Model, HeadlineConfigHas576QuantumParams) {
  ModelConfig mc;  // defaults: {8} qubits, 12 blocks
  Rng rng(1);
  const QuGeoModel model(mc, rng);
  EXPECT_EQ(model.num_quantum_params(), 576u);
  EXPECT_EQ(model.layout().total_qubits(), 8u);
}

TEST(Model, ParameterRoundTrip) {
  Rng rng(2);
  QuGeoModel model(small_config(DecoderKind::kPixel), rng);
  auto p = model.parameters();
  EXPECT_EQ(p.size(), model.num_params());
  EXPECT_EQ(p.size(), model.num_quantum_params() + 1);  // + pixel scale
  p[0] = 9.0;
  p.back() = 2.5;
  model.set_parameters(p);
  const auto q = model.parameters();
  EXPECT_EQ(q[0], 9.0);
  EXPECT_EQ(q.back(), 2.5);
}

TEST(Model, LayerDecoderHasAffineCalibrationParams) {
  Rng rng(3);
  const ModelConfig mc = small_config(DecoderKind::kLayer);
  const QuGeoModel model(mc, rng);
  // One scale and one bias per velocity-map row.
  EXPECT_EQ(model.num_params(), model.num_quantum_params() + 2 * mc.vel_rows);
}

TEST(Model, PredictShapes) {
  Rng rng(4);
  const ModelConfig mc = small_config(DecoderKind::kLayer);
  QuGeoModel model(mc, rng);
  std::vector<data::ScaledSample> samples;
  for (int i = 0; i < 3; ++i) samples.push_back(random_sample(8, 6, rng));
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  const auto preds = model.predict(ptrs);
  ASSERT_EQ(preds.size(), 3u);
  for (const auto& p : preds) EXPECT_EQ(p.size(), 6u);
}

TEST(Model, PredictHandlesBatchPadding) {
  Rng rng(5);
  QuGeoModel model(small_config(DecoderKind::kLayer, 1), rng);
  EXPECT_EQ(model.batch_size(), 2u);
  std::vector<data::ScaledSample> samples;
  for (int i = 0; i < 3; ++i) samples.push_back(random_sample(8, 6, rng));
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  const auto preds = model.predict(ptrs);  // 3 samples, batch 2 -> pad
  EXPECT_EQ(preds.size(), 3u);
}

TEST(Model, PredictKeepsTheCallersSimdOverrideOnPoolWorkers) {
  // Every QuBatch chunk, including those the pool's workers run, must
  // dispatch at the caller's ScopedSimdMode level.
  Rng rng(11);
  const QuGeoModel model(ModelConfig{}, rng);  // headline 8 qubits, 12 blocks
  std::vector<data::ScaledSample> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(random_sample(256, 64, rng));
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  set_num_threads(4);
  const simd::SimdLevel global = simd::active_level();
  simd::set_global_simd_mode(simd::SimdMode::kScalar);
  const auto all_scalar = model.predict(ptrs);
  simd::set_global_simd_mode(simd::SimdMode::kAuto);  // AVX2 where supported
  const auto scoped = [&] {
    const simd::ScopedSimdMode forced(simd::SimdMode::kScalar);
    return model.predict(ptrs);
  }();
  simd::set_global_simd_mode(global == simd::SimdLevel::kAvx2
                                 ? simd::SimdMode::kAvx2
                                 : simd::SimdMode::kScalar);
  set_num_threads(0);
  ASSERT_EQ(scoped.size(), all_scalar.size());
  for (std::size_t i = 0; i < scoped.size(); ++i)
    EXPECT_EQ(scoped[i], all_scalar[i]) << "sample " << i;
}

TEST(Model, LossMatchesManualComputation) {
  Rng rng(6);
  QuGeoModel model(small_config(DecoderKind::kLayer), rng);
  // loss() runs the exact statevector path by contract; recomputing it
  // from predict() only matches when the readout is exact too, so pin the
  // inference path against QUGEO_BACKEND/QUGEO_SHOTS smoke-leg overrides.
  model.set_execution_config(qsim::ExecutionConfig{});
  const data::ScaledSample s = random_sample(8, 6, rng);
  const data::ScaledSample* chunk[] = {&s};
  const auto preds = model.predict(chunk);
  Real expected = 0;
  for (std::size_t k = 0; k < 6; ++k) {
    const Real d = preds[0][k] - s.velocity[k];
    expected += d * d;
  }
  EXPECT_NEAR(model.loss(chunk), expected, 1e-10);
}

class ModelGradCheck
    : public ::testing::TestWithParam<std::tuple<DecoderKind, Index>> {};

TEST_P(ModelGradCheck, MatchesFiniteDifference) {
  const auto [dec, batch_log2] = GetParam();
  Rng rng(42 + static_cast<std::uint64_t>(batch_log2));
  QuGeoModel model(small_config(dec, batch_log2), rng);

  const std::size_t bs = model.batch_size();
  std::vector<data::ScaledSample> samples;
  const std::size_t vel_size =
      model.config().vel_rows * model.config().vel_cols;
  for (std::size_t i = 0; i < bs; ++i)
    samples.push_back(random_sample(8, vel_size, rng));
  std::vector<const data::ScaledSample*> chunk;
  for (const auto& s : samples) chunk.push_back(&s);

  std::vector<Real> grads(model.num_params(), 0);
  const Real loss0 = model.loss_and_gradient(chunk, grads);
  EXPECT_NEAR(loss0, model.loss(chunk), 1e-10);

  auto params = model.parameters();
  const Real eps = 1e-5;
  // Spot-check a spread of parameters (full sweep is slow).
  for (std::size_t i = 0; i < params.size();
       i += std::max<std::size_t>(1, params.size() / 17)) {
    const Real saved = params[i];
    params[i] = saved + eps;
    model.set_parameters(params);
    const Real lp = model.loss(chunk);
    params[i] = saved - eps;
    model.set_parameters(params);
    const Real lm = model.loss(chunk);
    params[i] = saved;
    model.set_parameters(params);
    EXPECT_NEAR(grads[i], (lp - lm) / (2 * eps), 1e-5) << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DecodersAndBatches, ModelGradCheck,
    ::testing::Values(std::make_tuple(DecoderKind::kLayer, Index{0}),
                      std::make_tuple(DecoderKind::kLayer, Index{1}),
                      std::make_tuple(DecoderKind::kLayer, Index{2}),
                      std::make_tuple(DecoderKind::kPixel, Index{0}),
                      std::make_tuple(DecoderKind::kPixel, Index{1})));

TEST(Model, GradCheckTwoGroupLayout) {
  Rng rng(77);
  ModelConfig mc;
  mc.group_data_qubits = {2, 2};
  mc.ansatz.blocks = 2;
  mc.ansatz.entangle_every = 1;
  mc.decoder = DecoderKind::kLayer;
  mc.vel_rows = 4;
  mc.vel_cols = 2;
  QuGeoModel model(mc, rng);

  data::ScaledSample s = random_sample(8, 8, rng);
  const data::ScaledSample* chunk[] = {&s};
  std::vector<Real> grads(model.num_params(), 0);
  (void)model.loss_and_gradient(chunk, grads);

  auto params = model.parameters();
  const Real eps = 1e-5;
  for (std::size_t i = 0; i < params.size(); i += 11) {
    const Real saved = params[i];
    params[i] = saved + eps;
    model.set_parameters(params);
    const Real lp = model.loss(chunk);
    params[i] = saved - eps;
    model.set_parameters(params);
    const Real lm = model.loss(chunk);
    params[i] = saved;
    model.set_parameters(params);
    EXPECT_NEAR(grads[i], (lp - lm) / (2 * eps), 1e-5) << "param " << i;
  }
}

/// What predict must return for `samples`: each sample encoded alone,
/// qsim::run_circuit on the ansatz with `params`' angles, decoded by a
/// fresh decoder carrying `params`' classical tail.
std::vector<std::vector<Real>> predict_by_hand(
    const QuGeoModel& model, std::span<const Real> params,
    std::span<const data::ScaledSample* const> samples) {
  const ModelConfig& mc = model.config();
  const auto decoder =
      make_decoder(mc.decoder, model.layout(), mc.vel_rows, mc.vel_cols);
  const std::size_t nq = model.num_quantum_params();
  for (std::size_t i = 0; i < decoder->num_classical_params(); ++i)
    decoder->set_classical_param(i, params[nq + i]);
  const StEncoder encoder(model.layout());
  std::vector<std::vector<Real>> out;
  for (const data::ScaledSample* s : samples) {
    const std::vector<Real>* wave = &s->waveform;
    qsim::StateVector psi =
        encoder.encode(std::span<const std::vector<Real>* const>(&wave, 1));
    qsim::run_circuit(model.ansatz(), params.first(nq), psi);
    out.push_back(decoder->decode(psi).predictions[0]);
  }
  return out;
}

void expect_bitwise(const std::vector<std::vector<Real>>& got,
                    const std::vector<std::vector<Real>>& want,
                    const char* when) {
  ASSERT_EQ(got.size(), want.size()) << when;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << when;
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          got[i].size() * sizeof(Real)),
              0)
        << when << ", sample " << i;
  }
}

TEST(Model, PredictReadsTheAnglesOfTheLastSetParametersAcrossMoves) {
  // The model runs the ansatz from a binding it keeps: one left stale by
  // set_parameters, or left behind by a move, would read other angles.
  Rng rng(12);
  QuGeoModel model(small_config(DecoderKind::kLayer), rng);
  model.set_execution_config(qsim::ExecutionConfig{});  // exact statevector
  std::vector<data::ScaledSample> samples;
  for (int i = 0; i < 3; ++i) samples.push_back(random_sample(8, 6, rng));
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  std::vector<Real> params = model.parameters();
  expect_bitwise(model.predict(ptrs), predict_by_hand(model, params, ptrs),
                 "after construction");
  rng.fill_uniform(params, -2, 2);
  model.set_parameters(params);
  expect_bitwise(model.predict(ptrs), predict_by_hand(model, params, ptrs),
                 "after set_parameters");

  QuGeoModel moved(std::move(model));
  expect_bitwise(moved.predict(ptrs), predict_by_hand(moved, params, ptrs),
                 "after a move construction");
  Rng other_rng(13);
  QuGeoModel target(small_config(DecoderKind::kLayer), other_rng);
  target = std::move(moved);
  expect_bitwise(target.predict(ptrs), predict_by_hand(target, params, ptrs),
                 "after a move assignment");
  rng.fill_uniform(params, -2, 2);
  target.set_parameters(params);
  expect_bitwise(target.predict(ptrs), predict_by_hand(target, params, ptrs),
                 "after set_parameters on the moved model");
}

TEST(Model, RejectsWrongChunkSize) {
  Rng rng(8);
  QuGeoModel model(small_config(DecoderKind::kLayer, 1), rng);
  data::ScaledSample s = random_sample(8, 6, rng);
  const data::ScaledSample* chunk[] = {&s};
  std::vector<Real> grads(model.num_params(), 0);
  EXPECT_THROW((void)model.loss_and_gradient(chunk, grads), std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::core
