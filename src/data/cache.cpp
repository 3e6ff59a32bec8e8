#include "data/cache.h"

#include <algorithm>
#include <sstream>

#include "common/env.h"
#include "common/io.h"
#include "common/logging.h"

namespace qugeo::data {
namespace {

std::filesystem::path wave_path(const std::filesystem::path& base) {
  return base.string() + ".wave.qgt";
}
std::filesystem::path vel_path(const std::filesystem::path& base) {
  return base.string() + ".vel.qgt";
}

}  // namespace

void save_scaled_dataset(const std::filesystem::path& base,
                         const ScaledDataset& ds) {
  const std::size_t n = ds.size();
  std::vector<Real> waves, vels;
  waves.reserve(n * ds.waveform_size());
  vels.reserve(n * ds.velocity_size());
  for (const ScaledSample& s : ds.samples) {
    waves.insert(waves.end(), s.waveform.begin(), s.waveform.end());
    vels.insert(vels.end(), s.velocity.begin(), s.velocity.end());
  }
  const std::size_t wshape[] = {n, ds.nsrc, ds.nt, ds.nrec};
  const std::size_t vshape[] = {n, ds.vel_rows, ds.vel_cols};
  save_tensor(wave_path(base), waves, wshape);
  save_tensor(vel_path(base), vels, vshape);
}

ScaledDataset load_scaled_dataset(const std::filesystem::path& base) {
  const LoadedTensor w = load_tensor(wave_path(base));
  const LoadedTensor v = load_tensor(vel_path(base));
  if (w.shape.size() != 4 || v.shape.size() != 3 || w.shape[0] != v.shape[0])
    throw std::runtime_error("load_scaled_dataset: malformed cache");
  ScaledDataset ds;
  ds.scaler_name = base.filename().string();
  ds.nsrc = w.shape[1];
  ds.nt = w.shape[2];
  ds.nrec = w.shape[3];
  ds.vel_rows = v.shape[1];
  ds.vel_cols = v.shape[2];
  const std::size_t n = w.shape[0];
  const std::size_t wsize = ds.waveform_size();
  const std::size_t vsize = ds.velocity_size();
  ds.samples.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ds.samples[i].waveform.assign(w.data.begin() + static_cast<std::ptrdiff_t>(i * wsize),
                                  w.data.begin() + static_cast<std::ptrdiff_t>((i + 1) * wsize));
    ds.samples[i].velocity.assign(v.data.begin() + static_cast<std::ptrdiff_t>(i * vsize),
                                  v.data.begin() + static_cast<std::ptrdiff_t>((i + 1) * vsize));
  }
  return ds;
}

bool scaled_dataset_exists(const std::filesystem::path& base) {
  return std::filesystem::exists(wave_path(base)) &&
         std::filesystem::exists(vel_path(base));
}

ExperimentDataConfig experiment_config_from_env() {
  ExperimentDataConfig cfg;
  cfg.num_samples = env::parse_env_positive("QUGEO_SAMPLES", cfg.num_samples);
  cfg.train_count = env::parse_env_positive("QUGEO_TRAIN", cfg.train_count);
  cfg.cnn_train_samples =
      env::parse_env_positive("QUGEO_CNN_SAMPLES", cfg.cnn_train_samples);
  // QUGEO_SEED is unsigned by contract: a negative value is rejected
  // loudly instead of wrapping through two's complement (see common/env.h
  // and the docs/ARCHITECTURE.md env table).
  cfg.seed = env::parse_env_u64("QUGEO_SEED", cfg.seed);
  if (cfg.train_count >= cfg.num_samples)
    cfg.train_count = cfg.num_samples * 3 / 4;
  return cfg;
}

std::size_t epochs_from_env(std::size_t fallback) {
  return env::parse_env_positive("QUGEO_EPOCHS", fallback);
}

ExperimentData load_or_build_experiment_data(const ExperimentDataConfig& config) {
  std::filesystem::create_directories(config.cache_dir);
  std::ostringstream tag;
  tag << "n" << config.num_samples << "_c" << config.cnn_train_samples << "_s"
      << config.seed << "_q" << config.target.nsrc << "x" << config.target.nt
      << "x" << config.target.nrec << "_g" << config.target.time_gain_power;
  const auto base = config.cache_dir / tag.str();

  ExperimentData data;
  data.train_count = config.train_count;
  const auto p_ds = base.string() + "_dsample";
  const auto p_fw = base.string() + "_qdfw";
  const auto p_cnn = base.string() + "_qdcnn";
  if (scaled_dataset_exists(p_ds) && scaled_dataset_exists(p_fw) &&
      scaled_dataset_exists(p_cnn)) {
    log_info("experiment data: loading cache ", base.string());
    data.dsample = load_scaled_dataset(p_ds);
    data.qdfw = load_scaled_dataset(p_fw);
    data.qdcnn = load_scaled_dataset(p_cnn);
    data.dsample.scaler_name = "D-Sample";
    data.qdfw.scaler_name = "Q-D-FW";
    data.qdcnn.scaler_name = "Q-D-CNN";
    return data;
  }

  log_info("experiment data: generating ", config.num_samples, "+",
           config.cnn_train_samples, " raw samples (cache miss)");
  Rng rng(config.seed);
  const seismic::FlatVelConfig vel_cfg;
  const seismic::Acquisition acq = seismic::openfwi_acquisition();
  const auto& t = config.target;
  // The corpus maps model only the shots the scalers read: D-Sample and
  // the Q-D-CNN input pick picked_sources() of a volume, which reads a
  // volume of just those shots in order, and Q-D-FW reads only the map.
  // A target of more shots than the acquisition has reads every source,
  // so the min models each once. The Q-D-CNN training maps, drawn next,
  // model every source: the scaler's input scale is max|raw| over them.
  const RawDataset raw = generate_raw_dataset(
      config.num_samples, vel_cfg, acq,
      picked_sources(acq.num_sources, std::min(t.nsrc, acq.num_sources)), rng);
  const RawDataset cnn_raw =
      generate_raw_dataset(config.cnn_train_samples, vel_cfg, acq, rng);

  const DSampleScaler dsample(t);
  const ForwardModelScaler qdfw(t);
  log_info("experiment data: training Q-D-CNN compressor");
  Rng cnn_rng = rng.split();
  const CnnScaler qdcnn = train_cnn_scaler(cnn_raw, t, config.cnn, cnn_rng);

  data.dsample = dsample.scale_dataset(raw, t);
  data.qdfw = qdfw.scale_dataset(raw, t);
  data.qdcnn = qdcnn.scale_dataset(raw, t);

  save_scaled_dataset(p_ds, data.dsample);
  save_scaled_dataset(p_fw, data.qdfw);
  save_scaled_dataset(p_cnn, data.qdcnn);
  log_info("experiment data: cached to ", base.string());
  return data;
}

}  // namespace qugeo::data
