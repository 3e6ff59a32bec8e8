// Figure 8: Q-M-PX vs Q-M-LY across the three data-scaling methods.
//
// Paper series (SSIM): D-Sample 0.800 -> 0.842, Q-D-FW 0.859 -> 0.892,
// Q-D-CNN 0.862 -> 0.905; average MSE improvement 33.2%; the fully
// straightforward pipeline (D-Sample + Q-M-PX) to the full QuGeo pipeline
// is 0.800 -> 0.905 SSIM and -61.7% MSE.
#include "bench_common.h"

int main() {
  using namespace qugeo;
  bench::print_header(
      "Figure 8: decoder design (Q-M-PX vs Q-M-LY) on all data scalings",
      "SSIM 0.800->0.842 (D-Sample), 0.859->0.892 (Q-D-FW), "
      "0.862->0.905 (Q-D-CNN)");
  bench::Setup setup = bench::standard_setup();
  bench::print_run_scale(setup);

  struct Row {
    std::string dataset;
    core::ExperimentResult px, ly;
  };
  std::vector<Row> rows;
  for (const char* ds : {"D-Sample", "Q-D-FW", "Q-D-CNN"}) {
    core::ExperimentSpec spec;
    spec.dataset = ds;
    spec.decoder = core::DecoderKind::kPixel;
    const auto px = run_vqc_experiment(setup.data, spec, setup.train);
    spec.decoder = core::DecoderKind::kLayer;
    const auto ly = run_vqc_experiment(setup.data, spec, setup.train);
    rows.push_back({ds, px, ly});
  }

  std::printf("\n%-10s | %-8s %-10s | %-8s %-10s | %-9s %-9s\n", "Dataset",
              "PX SSIM", "PX MSE", "LY SSIM", "LY MSE", "dSSIM", "dMSE%");
  std::printf("-----------+---------------------+---------------------+--------------------\n");
  Real mse_improve_sum = 0;
  for (const Row& r : rows) {
    const Real dssim = r.ly.train.final_ssim - r.px.train.final_ssim;
    const Real dmse = 100.0 * (r.px.train.final_mse - r.ly.train.final_mse) /
                      r.px.train.final_mse;
    mse_improve_sum += dmse;
    std::printf("%-10s | %8.4f %10.3e | %8.4f %10.3e | %+9.4f %+8.2f%%\n",
                r.dataset.c_str(), r.px.train.final_ssim, r.px.train.final_mse,
                r.ly.train.final_ssim, r.ly.train.final_mse, dssim, dmse);
  }
  std::printf("\nAverage MSE improvement of Q-M-LY over Q-M-PX: %.2f%% "
              "(paper: 33.23%%)\n",
              mse_improve_sum / 3.0);

  const Real base_ssim = rows[0].px.train.final_ssim;   // D-Sample + Q-M-PX
  const Real best_ssim = rows[2].ly.train.final_ssim;   // Q-D-CNN + Q-M-LY
  const Real base_mse = rows[0].px.train.final_mse;
  const Real best_mse = rows[2].ly.train.final_mse;
  std::printf("Straightforward -> full QuGeo: SSIM %.4f -> %.4f "
              "(paper 0.800 -> 0.905), MSE %+.2f%% (paper -61.69%%)\n",
              base_ssim, best_ssim, 100.0 * (best_mse - base_mse) / base_mse);
  return 0;
}
