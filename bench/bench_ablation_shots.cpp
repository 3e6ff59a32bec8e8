// Ablation: measurement shot budget. The paper evaluates with exact
// expectations (infinite shots); on hardware every <Z> is estimated from a
// finite number of measurements, possibly behind a readout error. This
// extension trains the headline Q-M-LY model and sweeps the shot budget of
// the sampled readout — purely through ExecutionConfig{backend, noise,
// shots, seed}: the model is flipped onto a shot budget with
// set_execution_config, no call-site special-casing.
#include "bench_common.h"
#include "qsim/backend.h"

int main() {
  using namespace qugeo;
  bench::print_header(
      "Ablation: measurement shot budget for the trained Q-M-LY readout",
      "extension — hardware deployment cost the paper's NISQ story implies");
  bench::Setup setup = bench::standard_setup();
  setup.train.epochs = std::max<std::size_t>(20, setup.train.epochs / 2);
  bench::print_run_scale(setup);

  const auto& ds = setup.data.qdfw;
  const auto split = setup.data.split();
  core::ModelConfig mc;
  mc.decoder = core::DecoderKind::kLayer;
  Rng init(42);
  core::QuGeoModel model(mc, init);
  (void)train_model(model, ds, split, setup.train);
  const core::EvalMetrics exact = evaluate_model(model, ds, split.test);

  std::printf("\n%-10s | %-10s | %-8s | %-10s\n", "shots", "readout e", "SSIM",
              "MSE");
  std::printf("-----------+------------+----------+-----------\n");
  for (const Real readout_error : {0.0, 0.02}) {
    for (const std::size_t shots : {64u, 256u, 1024u, 4096u, 16384u}) {
      qsim::ExecutionConfig exec;
      exec.shots = shots;
      exec.noise.readout_error = readout_error;
      exec.seed = 2024;
      model.set_execution_config(exec);
      const core::EvalMetrics m = evaluate_model(model, ds, split.test);
      std::printf("%-10zu | %-10g | %8.4f | %10.3e\n", shots, readout_error,
                  m.ssim, m.mse);
    }
  }
  std::printf("%-10s | %-10s | %8.4f | %10.3e\n", "exact", "0", exact.ssim,
              exact.mse);
  std::printf(
      "\nExpected shape: metrics converge to the exact readout as the shot"
      "\nbudget grows (a few thousand shots per gather suffice); a 2%%"
      "\nreadout error costs a roughly constant SSIM offset on top.\n");
  return 0;
}
