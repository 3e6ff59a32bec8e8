#include "data/cache.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>

#include "common/env.h"
#include "common/io.h"
#include "common/logging.h"
#include "common/parallel.h"

namespace qugeo::data {
namespace {

std::filesystem::path wave_path(const std::filesystem::path& base) {
  return base.string() + ".wave.qgt";
}
std::filesystem::path vel_path(const std::filesystem::path& base) {
  return base.string() + ".vel.qgt";
}

/// A map of the cache-miss build and the shots it models. A shot task
/// keeps its gather only when the scalers read that shot (its source is
/// picked) and, for a Q-D-CNN training map, records the shot's max|raw|.
/// The task that finishes the map's last shot gathers the kept shots into
/// raw.seismic, a volume of just the picked shots that the scalers read as
/// they would the full one (picked_sources), takes what they read and
/// frees it.
struct MapShots {
  RawSample raw;
  std::vector<seismic::ShotGather> kept;  ///< one slot per picked source
  std::vector<Real> shot_max;  ///< per modelled shot; empty when unread
  std::atomic<std::size_t> pending{0};
};

/// `count` maps drawn in order, each to model `nshots` shots and keep
/// `nkept` of them.
std::vector<MapShots> draw_maps(std::size_t count, std::size_t nshots,
                                std::size_t nkept, Rng& rng) {
  std::vector<MapShots> maps(count);
  for (MapShots& map : maps) {
    map.raw.velocity = seismic::generate_flatvel(seismic::FlatVelConfig{}, rng);
    map.kept.resize(nkept);
    map.pending.store(nshots, std::memory_order_relaxed);
  }
  return maps;
}

/// Model shot k of `map` (source sources[k] of `acq`) on the calling thread.
/// True for the task that finished the map's last shot: it alone then
/// reads the volume of the map's `picked` shots from map.raw.seismic.
bool model_map_shot(MapShots& map, const seismic::Acquisition& acq,
                    std::span<const std::size_t> sources,
                    std::span<const std::size_t> picked, std::size_t k) {
  {
    seismic::ShotGather shot =
        seismic::model_shot(map.raw.velocity, acq, sources[k]);
    if (!map.shot_max.empty()) map.shot_max[k] = max_abs_amplitude(shot.data());
    const auto at = std::find(picked.begin(), picked.end(), sources[k]);
    if (at != picked.end()) map.kept[at - picked.begin()] = std::move(shot);
  }  // an unread shot's gather is freed here
  if (map.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
  map.raw.seismic = seismic::SeismicData(picked.size(), acq.num_time_samples,
                                         acq.num_receivers);
  for (std::size_t s = 0; s < picked.size(); ++s)
    map.raw.seismic.set_shot(s, map.kept[s]);
  map.kept.clear();
  return true;
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
  const seismic::Acquisition acq = seismic::openfwi_acquisition();
  const ScaleTarget& t = config.target;
  // The scalers read only the picked_sources() shots of a volume:
  // D-Sample and the Q-D-CNN input pick them, and picking again from a
  // volume of just those shots reads each in order. Q-D-FW reads only the
  // map. A target of more shots than the acquisition has reads every
  // source, so the min models each once. The corpus maps model only the
  // picked shots; the Q-D-CNN training maps model every source, because
  // the scaler's input scale is max|raw| over all of them.
  const std::vector<std::size_t> picked =
      picked_sources(acq.num_sources, std::min(t.nsrc, acq.num_sources));
  std::vector<std::size_t> every(acq.num_sources);
  std::iota(every.begin(), every.end(), std::size_t{0});
  // Every map is drawn before any shot runs, corpus maps first, as
  // generate_raw_dataset draws them, so the rng stream is unchanged.
  Rng rng(config.seed);
  std::vector<MapShots> corpus =
      draw_maps(config.num_samples, picked.size(), picked.size(), rng);
  std::vector<MapShots> cnn_maps =
      draw_maps(config.cnn_train_samples, every.size(), picked.size(), rng);
  for (MapShots& map : cnn_maps) map.shot_max.resize(every.size());
  Rng cnn_rng = rng.split();

  // Two fan-outs of one-shot tasks. Q-D-FW tasks read only a map's
  // velocity, never the volume the shot tasks of that map fill.
  // Phase 1: every shot of the Q-D-CNN training maps, then each map's
  // Q-D-FW re-model (the scaler's target); the longest tasks go first.
  const DSampleScaler dsample(t);
  const ForwardModelScaler qdfw(t);
  CnnTrainingSet train;
  train.picks.resize(cnn_maps.size());
  train.targets.resize(cnn_maps.size());
  const std::size_t cnn_shots = cnn_maps.size() * every.size();
  parallel_for(0, cnn_shots + cnn_maps.size(), [&](std::size_t i) {
    if (i >= cnn_shots) {
      const std::size_t m = i - cnn_shots;
      train.targets[m] = qdfw.scale(cnn_maps[m].raw).waveform;
      return;
    }
    const std::size_t m = i / every.size();
    MapShots& map = cnn_maps[m];
    if (!model_map_shot(map, acq, every, picked, i % every.size())) return;
    train.picks[m] = cnn_input_pick(map.raw.seismic, t, config.cnn);
    map.raw.seismic = {};
  });
  // max is exact, so folding per-shot maxima gives the max over all shots.
  for (const MapShots& map : cnn_maps)
    for (Real v : map.shot_max) train.max_abs = std::max(train.max_abs, v);

  // Phase 2: iteration 0, which parallel_for runs on this thread, trains
  // the scaler; the workers model the corpus maps' picked shots, then
  // their Q-D-FW re-models. Training on a worker would leave its buffers
  // in that worker's malloc arena for the life of the process.
  log_info("experiment data: training Q-D-CNN compressor");
  std::optional<CnnScaler> qdcnn;
  data.dsample = make_scaled_dataset(dsample.name(), t, corpus.size());
  data.qdfw = make_scaled_dataset(qdfw.name(), t, corpus.size());
  std::vector<nn::Tensor> qdcnn_picks(corpus.size());
  const std::size_t corpus_shots = corpus.size() * picked.size();
  parallel_for(0, 1 + corpus_shots + corpus.size(), [&](std::size_t i) {
    if (i == 0) {
      qdcnn.emplace(train_cnn_scaler(std::move(train), t, config.cnn, cnn_rng));
      return;
    }
    const std::size_t j = i - 1;
    if (j >= corpus_shots) {
      const std::size_t m = j - corpus_shots;
      data.qdfw.samples[m] = qdfw.scale(corpus[m].raw);
      return;
    }
    const std::size_t m = j / picked.size();
    MapShots& map = corpus[m];
    if (!model_map_shot(map, acq, picked, picked, j % picked.size())) return;
    data.dsample.samples[m] = dsample.scale(map.raw);
    qdcnn_picks[m] = cnn_input_pick(map.raw.seismic, t, config.cnn);
    map.raw.seismic = {};
  });

  // The scaler's nn layers own scratch buffers: one sample at a time.
  data.qdcnn = make_scaled_dataset(qdcnn->name(), t, corpus.size());
  for (std::size_t m = 0; m < corpus.size(); ++m)
    data.qdcnn.samples[m] =
        qdcnn->scale(std::move(qdcnn_picks[m]), corpus[m].raw.velocity);

  save_scaled_dataset(p_ds, data.dsample);
  save_scaled_dataset(p_fw, data.qdfw);
  save_scaled_dataset(p_cnn, data.qdcnn);
  log_info("experiment data: cached to ", base.string());
  return data;
}

}  // namespace qugeo::data
