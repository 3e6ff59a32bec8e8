// Quickstart: the whole QuGeo pipeline in ~60 lines.
//
//   1. synthesize a flat-layer subsurface and model its seismic response,
//   2. scale it to quantum size with the physics-guided Q-D-FW scaler,
//   3. train the 576-parameter Q-M-LY variational circuit,
//   4. invert a held-out shot gather back into a velocity map.
//
// Run:  ./quickstart
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/cpu_features.h"
#include "core/experiment.h"
#include "qsim/executor.h"

int main() {
  using namespace qugeo;
  std::printf("QuGeo quickstart: quantum full-waveform inversion\n\n");

  // 1. A small synthetic FlatVel-A-style corpus (keep it quick: 24 samples).
  Rng rng(7);
  seismic::FlatVelConfig vel_cfg;
  seismic::Acquisition acq = seismic::openfwi_acquisition();
  std::printf("[1/4] generating 24 samples (70x70 maps, 5x1000x70 gathers)...\n");
  const data::RawDataset raw = data::generate_raw_dataset(24, vel_cfg, acq, rng);

  // 2. Physics-guided scaling to 256-value waveforms and 8x8 maps.
  std::printf("[2/4] physics-guided scaling (Q-D-FW, 8 Hz re-modelling)...\n");
  const data::ForwardModelScaler scaler;
  data::ExperimentData data;
  data.qdfw = scaler.scale_dataset(raw, data::ScaleTarget{});
  data.dsample = data.qdcnn = data.qdfw;
  data.train_count = 18;

  // 3. Train the headline VQC: 8 qubits, 12 U3+CU3 blocks, layer decoder.
  std::printf("[3/4] training Q-M-LY (576 parameters, Adam + cosine)...\n");
  core::ExperimentSpec spec;
  spec.dataset = "Q-D-FW";
  spec.decoder = core::DecoderKind::kLayer;
  core::TrainConfig tc;
  tc.epochs = 60;
  const core::ExperimentResult result =
      run_vqc_experiment(data, spec, tc);
  std::printf("      trained: test SSIM %.4f, MSE %.3e (%zu parameters)\n",
              result.train.final_ssim, result.train.final_mse,
              result.param_count);

  // 4. Invert one held-out sample and show the velocity profile.
  std::printf("[4/4] inverting a held-out gather:\n\n");
  core::ModelConfig mc;
  mc.decoder = spec.decoder;
  Rng init(spec.init_seed);
  core::QuGeoModel model(mc, init);
  (void)train_model(model, data.qdfw, data.split(), tc);

  const auto& sample = data.qdfw.samples[20];
  const data::ScaledSample* chunk[] = {&sample};
  const auto pred = model.predict(chunk)[0];

  std::printf("  depth | truth (km/s) | predicted (km/s)\n");
  std::printf("  ------+--------------+-----------------\n");
  for (std::size_t row = 0; row < 8; ++row) {
    const Real truth = data::denormalize_velocity(sample.velocity[row * 8]) / 1000;
    const Real guess = data::denormalize_velocity(pred[row * 8]) / 1000;
    std::printf("  %4zu m | %12.2f | %16.2f\n", row * 88, truth, guess);
  }
  // Bonus: the same prediction under a hardware-realistic readout — a
  // 4096-shot measurement budget with 2% readout error, selected purely
  // through ExecutionConfig (the shot readout stage samples the
  // statevector's output).
  qsim::ExecutionConfig hw = model.execution_config();
  hw.shots = 4096;
  hw.noise.readout_error = 0.02;
  model.set_execution_config(hw);
  const auto pred_hw = model.predict(chunk)[0];
  Real drift = 0;
  for (std::size_t k = 0; k < pred.size(); ++k)
    drift += std::abs(pred_hw[k] - pred[k]);
  std::printf("\n  4096-shot readout (2%% readout error): mean |drift| %.4f "
              "per pixel\n",
              drift / static_cast<Real>(pred.size()));

  // Bonus: the SIMD layer underneath the forward pass (docs/ARCHITECTURE.md,
  // "SIMD kernels"): the trained ansatz on the scalar reference kernels vs
  // the auto-dispatched ones.
  {
    const auto params = model.parameters();
    const auto theta =
        std::span<const Real>(params).first(model.num_quantum_params());
    const auto time_forward = [&] {
      using clock = std::chrono::steady_clock;
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = clock::now();
        for (int it = 0; it < 20; ++it) {
          qsim::StateVector psi(model.ansatz().num_qubits());
          qsim::run_circuit(model.ansatz(), theta, psi);
        }
        const std::chrono::duration<double, std::milli> dt = clock::now() - t0;
        best = std::min(best, dt.count() / 20);
      }
      return best;
    };
    const double scalar_ms = [&] {
      simd::ScopedSimdMode scoped(simd::SimdMode::kScalar);
      return time_forward();
    }();
    const double auto_ms = time_forward();  // process-default dispatch
    std::printf("\n  ansatz forward (%zu ops): scalar %.3f ms | %s %.3f ms "
                "(%.2fx)\n",
                model.ansatz().num_ops(), scalar_ms,
                simd::simd_level_name(simd::active_level()).data(), auto_ms,
                scalar_ms / auto_ms);
  }

  std::printf("\nDone. Next: examples/fwi_inversion for the full comparison, "
              "bench/ for every paper table and figure.\n");
  return 0;
}
