// The `corpus` workload and the verified corpus cache the training
// workloads read.
//
// Untraced, one operation is one call of data::load_or_build_experiment_data
// into a fresh cache directory (so it always misses: FlatVel draws, the full
// 70x70, 5x1000x70 FDTD acquisition, D-Sample, Q-D-FW re-modelling, Q-D-CNN
// scaler training and the three dataset writes) followed by reading the
// three datasets back. The operation builds a small corpus of its own, so
// a run holds tens of them. Traced, the same corpus is replayed through
// the public calls the monolith makes, with a span around each.
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/parallel.h"
#include "metrics/image_metrics.h"
#include "nn_probe.h"
#include "seismic/fdtd.h"

namespace qugeo::perfbench {
namespace {

namespace fs = std::filesystem;

// The training workloads' corpus.
constexpr std::size_t kSamples = 24;    ///< raw samples scaled three ways
constexpr std::size_t kTrain = 18;      ///< of which train; the rest test
constexpr std::size_t kCnnSamples = 6;  ///< separate Q-D-CNN training set
constexpr std::size_t kCnnEpochs = 25;  ///< Q-D-CNN scaler training epochs
// The corpus one `corpus` operation builds: 0.4-0.7 s on 4 cores, so a
// 25 s run holds 35-60 operations and their 10th percentile is taken over
// enough of them to steady it (a 24-sample build, ~2.5 s, gave 7 a run).
constexpr std::size_t kOpSamples = 4;
constexpr std::size_t kOpTrain = 3;
constexpr std::size_t kOpCnnSamples = 1;
constexpr std::size_t kSetupReps = 1001;  ///< set-up is tens of microseconds

const char* const kSuffixes[3] = {"_dsample", "_qdfw", "_qdcnn"};

/// What one `corpus` operation builds: the training corpus, made smaller.
data::ExperimentDataConfig op_config(std::uint64_t seed, const fs::path& dir) {
  data::ExperimentDataConfig cfg = corpus_config(seed, dir);
  cfg.num_samples = kOpSamples;
  cfg.train_count = kOpTrain;
  cfg.cnn_train_samples = kOpCnnSamples;
  return cfg;
}

/// Cache base path of one dataset in a directory load_or_build filled.
fs::path dataset_base(const fs::path& dir, const std::string& suffix) {
  const std::string tail = suffix + ".wave.qgt";
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > tail.size() &&
        name.compare(name.size() - tail.size(), tail.size(), tail) == 0)
      return dir / name.substr(0, name.size() - std::string(".wave.qgt").size());
  }
  throw std::runtime_error("no " + suffix + " dataset in " + dir.string());
}

const data::ScaledDataset& part(const data::ExperimentData& d, std::size_t i) {
  return i == 0 ? d.dsample : (i == 1 ? d.qdfw : d.qdcnn);
}

std::uint64_t corpus_digest(const data::ExperimentData& d) {
  std::uint64_t h = digest(d.dsample);
  h = digest(d.qdfw, h);
  return digest(d.qdcnn, h ^ d.train_count);
}

/// Largest difference between two corpora, dataset by dataset.
double corpus_diff(const data::ExperimentData& a, const data::ExperimentData& b) {
  double d = 0;
  for (std::size_t i = 0; i < 3; ++i)
    d = std::max(d, max_abs_diff(part(a, i), part(b, i)));
  return d;
}

/// Digest of the FlatVel models load_or_build_experiment_data draws from
/// `seed` for one operation: the raw samples, then the Q-D-CNN training
/// samples.
std::uint64_t input_digest(std::uint64_t seed) {
  Rng rng(seed);
  const seismic::FlatVelConfig vel_cfg;
  std::uint64_t h = kDigestSeed;
  for (std::size_t i = 0; i < kOpSamples + kOpCnnSamples; ++i)
    h = digest(seismic::generate_flatvel(vel_cfg, rng).data(), h);
  return h;
}

/// Shape and range checks every operation's corpus must pass.
void check_corpus(Result& r, const data::ExperimentData& d) {
  for (std::size_t i = 0; i < 3; ++i) {
    const data::ScaledDataset& ds = part(d, i);
    bool ok = ds.size() == kOpSamples && ds.waveform_size() == 256 &&
              ds.velocity_size() == 64;
    for (const auto& s : ds.samples) {
      ok = ok && s.waveform.size() == 256 && s.velocity.size() == 64;
      for (Real v : s.waveform) ok = ok && std::isfinite(v);
      for (Real v : s.velocity) ok = ok && v >= 0 && v <= 1;
    }
    r.check(ok, std::string("corpus") + kSuffixes[i] +
                    ": all samples, 256 finite values, velocities in [0,1]");
  }
}

/// Fig. 6a: Q-D-CNN waveforms against the Q-D-FW reference.
void add_quality(Result& r, const data::ExperimentData& d) {
  const WaveFidelity fid = wave_fidelity(d.qdfw, d.qdcnn);
  r.check(std::isfinite(fid.ssim) && fid.ssim > -1 && fid.ssim <= 1 &&
              std::isfinite(fid.mse) && fid.mse > 0,
          "Q-D-CNN waveform SSIM/MSE finite and in range");
  r.quality["data.qdcnn_wave_ssim"] = fid.ssim;
  r.quality["data.qdcnn_wave_mse"] = fid.mse;
}

struct CorpusOp {
  data::ExperimentData built;
  data::ExperimentData read;
  double seconds = 0;
};

/// One untraced operation: build into a fresh directory, read back.
CorpusOp build_fresh(std::uint64_t seed, const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  CorpusOp op;
  const auto t0 = Clock::now();
  op.built = data::load_or_build_experiment_data(op_config(seed, dir));
  op.read.train_count = op.built.train_count;
  op.read.dsample = data::load_scaled_dataset(dataset_base(dir, kSuffixes[0]));
  op.read.qdfw = data::load_scaled_dataset(dataset_base(dir, kSuffixes[1]));
  op.read.qdcnn = data::load_scaled_dataset(dataset_base(dir, kSuffixes[2]));
  op.seconds = seconds_since(t0);
  return op;
}

/// The monolith's loop replayed through its public calls, one span each.
data::ExperimentData replay_corpus(const data::ExperimentDataConfig& cfg,
                                   const fs::path& dir, Trace& trace,
                                   std::size_t* scaler_params) {
  const ScopedSpan root(&trace, "data.load_or_build_experiment_data");
  Rng rng(cfg.seed);
  const seismic::FlatVelConfig vel_cfg;
  const seismic::Acquisition acq = seismic::openfwi_acquisition();
  const auto draw = [&](std::size_t count, std::size_t id0) {
    data::RawDataset raw;
    raw.velocity_config = vel_cfg;
    raw.acquisition = acq;
    for (std::size_t i = 0; i < count; ++i) {
      const auto id = static_cast<std::int64_t>(id0 + i);
      data::RawSample s;
      {
        const ScopedSpan span(&trace, "seismic.generate_flatvel", id);
        s.velocity = seismic::generate_flatvel(vel_cfg, rng);
      }
      {
        const ScopedSpan span(&trace, "seismic.model_shots", id);
        s.seismic = seismic::model_shots(s.velocity, acq);
      }
      raw.samples.push_back(std::move(s));
    }
    return raw;
  };
  const data::RawDataset raw = draw(cfg.num_samples, 0);
  const data::RawDataset cnn_raw = draw(cfg.cnn_train_samples, cfg.num_samples);

  const data::ScaleTarget& t = cfg.target;
  const data::DSampleScaler dsample(t);
  const data::ForwardModelScaler qdfw(t);
  Rng cnn_rng = rng.split();
  const data::CnnScaler qdcnn = [&] {
    const ScopedSpan span(&trace, "data.train_cnn_scaler");
    return data::train_cnn_scaler(cnn_raw, t, cfg.cnn, cnn_rng);
  }();
  *scaler_params = qdcnn.param_count();

  data::ExperimentData out;
  out.train_count = cfg.train_count;
  const data::Scaler* scalers[3] = {&dsample, &qdfw, &qdcnn};
  const char* spans[3] = {"data.dsample", "data.qdfw", "data.qdcnn"};
  for (std::size_t k = 0; k < 3; ++k) {
    // Scaler::scale_dataset for the metadata, then the per-sample calls.
    data::ScaledDataset ds = scalers[k]->scale_dataset(data::RawDataset{}, t);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const ScopedSpan span(&trace, spans[k], static_cast<std::int64_t>(i));
      ds.samples.push_back(scalers[k]->scale(raw.samples[i]));
    }
    (k == 0 ? out.dsample : (k == 1 ? out.qdfw : out.qdcnn)) = std::move(ds);
  }

  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    const ScopedSpan span(&trace, "data.save_scaled_dataset");
    for (std::size_t k = 0; k < 3; ++k)
      data::save_scaled_dataset(dir / (std::string("replay") + kSuffixes[k]),
                                part(out, k));
  }
  {
    const ScopedSpan span(&trace, "data.load_scaled_dataset");
    for (std::size_t k = 0; k < 3; ++k)
      (void)data::load_scaled_dataset(dir /
                                      (std::string("replay") + kSuffixes[k]));
  }
  return out;
}

void trace_corpus(const Options& opt, Result& r) {
  // Untraced reference operation, then the traced replay of the same corpus.
  const CorpusOp ref = build_fresh(opt.seed, opt.work_dir / "corpus_fresh");
  check_corpus(r, ref.built);
  add_quality(r, ref.built);
  r.input_fingerprint = input_digest(opt.seed);

  Trace trace;
  std::size_t scaler_params = 0;
  const auto t0 = Clock::now();
  const data::ExperimentData replay =
      replay_corpus(op_config(opt.seed, opt.work_dir / "corpus_replay"),
                    opt.work_dir / "corpus_replay", trace, &scaler_params);
  const double traced_s = seconds_since(t0);
  const double diff = corpus_diff(replay, ref.built);
  r.check(diff == 0, "replayed corpus equals load_or_build_experiment_data "
                     "bitwise");

  // seismic: FDTD throughput (computed from grid x steps x shots) and the
  // 1-thread over nproc-thread wall time of model_shots.
  Rng vel_rng(opt.seed);
  const seismic::VelocityModel vel =
      seismic::generate_flatvel(seismic::FlatVelConfig{}, vel_rng);
  const seismic::Acquisition acq = seismic::openfwi_acquisition();
  const auto shots_us = [&] {
    return median_call_us(2, [&] { (void)seismic::model_shots(vel, acq); });
  };
  const double at_nproc_us = shots_us();
  set_num_threads(1);
  const double at_one_us = shots_us();
  set_num_threads(opt.nproc);
  std::size_t substeps = 1;
  const Real dt_limit =
      Real(0.9) * seismic::max_stable_dt(vel, acq.fdtd.space_order);
  while (1.0 / static_cast<Real>(acq.num_time_samples * substeps) > dt_limit)
    ++substeps;
  const double cells = static_cast<double>(vel.nz() * vel.nx()) *
                       static_cast<double>(acq.num_time_samples * substeps) *
                       static_cast<double>(acq.num_sources);

  r.add("seismic.model_shots_ms", trace.mean_us("seismic.model_shots") / 1e3,
        "ms");
  r.add("seismic.gcells_per_s",
        cells / (trace.mean_us("seismic.model_shots") * 1e-6) / 1e9, "Gcell/s");
  r.add("seismic.thread_speedup", at_one_us / at_nproc_us, "ratio");
  r.add("data.dsample_us", trace.mean_us("data.dsample"), "us");
  r.add("data.qdfw_ms", trace.mean_us("data.qdfw") / 1e3, "ms");
  r.add("data.qdcnn_us", trace.mean_us("data.qdcnn"), "us");
  r.add("data.cnn_scaler_train_s", trace.total_s("data.train_cnn_scaler"), "s");
  r.add("data.cache_write_ms", trace.total_s("data.save_scaled_dataset") * 1e3,
        "ms");
  r.add("data.cache_read_ms", trace.total_s("data.load_scaled_dataset") * 1e3,
        "ms");

  // nn: the scaler's layer stack mirrored from the public nn classes.
  const data::ExperimentDataConfig cfg = op_config(opt.seed, {});
  Rng nn_rng(opt.seed);
  const NnProbe scaler = probe_net(NetShape::kScaler, cfg.cnn.batch_size, nn_rng);
  r.check(scaler.params == scaler_params,
          "mirrored scaler stack has CnnScaler::param_count() parameters");
  add_nn_metrics(r, "scaler", scaler);

  add_trace_summary(r, trace, opt, traced_s, ref.seconds, diff);
}

}  // namespace

data::ExperimentDataConfig corpus_config(std::uint64_t seed,
                                         const fs::path& cache_dir) {
  data::ExperimentDataConfig cfg;
  cfg.num_samples = kSamples;
  cfg.train_count = kTrain;
  cfg.cnn_train_samples = kCnnSamples;
  cfg.seed = seed;
  cfg.cnn.epochs = kCnnEpochs;
  cfg.cache_dir = cache_dir;
  return cfg;
}

namespace {

fs::path corpus_dir(const Options& opt) {
  return opt.work_dir / "corpus" / std::to_string(opt.seed);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace

void fill_corpus(const Options& opt) {
  const fs::path dir = corpus_dir(opt);
  if (fs::exists(dir / "digest")) {
    (void)load_verified_corpus(opt);
    return;
  }
  // No digest means no fill finished here: start over.
  fs::remove_all(dir);
  fs::create_directories(dir);
  const data::ExperimentData built =
      data::load_or_build_experiment_data(corpus_config(opt.seed, dir));
  const data::ExperimentData read =
      data::load_or_build_experiment_data(corpus_config(opt.seed, dir));
  if (corpus_diff(built, read) != 0)
    throw std::runtime_error("corpus cache fill: read-back differs from build");
  {
    std::ofstream out(dir / "digest.tmp", std::ios::trunc);
    out << hex(corpus_digest(built)) << "\n";
    if (!out) throw std::runtime_error("corpus cache fill: cannot write digest");
  }
  fs::rename(dir / "digest.tmp", dir / "digest");
}

data::ExperimentData load_verified_corpus(const Options& opt, Trace* trace) {
  const fs::path dir = corpus_dir(opt);
  std::ifstream in(dir / "digest");
  std::string stored;
  if (!(in >> stored))
    throw std::runtime_error("corpus cache for seed " + std::to_string(opt.seed) +
                             " is not filled (run with --fill-corpus)");
  data::ExperimentData d;
  {
    const ScopedSpan span(trace, "data.load_scaled_dataset");
    d = data::load_or_build_experiment_data(corpus_config(opt.seed, dir));
  }
  if (hex(corpus_digest(d)) != stored)
    throw std::runtime_error("corpus cache " + dir.string() +
                             " does not match its digest");
  return d;
}

Result run_corpus(const Options& opt) {
  Result r;
  if (opt.trace) {
    trace_corpus(opt, r);
    return r;
  }
  const fs::path dir = opt.work_dir / "corpus_fresh";
  // Set-up is the program's work before a build: a fresh cache directory.
  std::vector<double> setup;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    fs::remove_all(dir);
    fs::create_directories(dir);
    setup.push_back(seconds_since(t0));
  }
  r.add("setup_s", op_time(setup), "s");
  r.input_fingerprint = input_digest(opt.seed);

  std::vector<double> op_s;
  data::ExperimentData first;
  const auto start = Clock::now();
  while (op_s.empty() || seconds_since(start) < opt.seconds) {
    CorpusOp op = build_fresh(opt.seed, dir);
    ++r.attempted;
    op_s.push_back(op.seconds);
    const bool read_ok = corpus_diff(op.built, op.read) == 0 &&
                         corpus_digest(op.built) == corpus_digest(op.read);
    if (!read_ok) {
      ++r.failed;
      r.check_failures.push_back("datasets read back differ from those built");
    }
    if (op_s.size() == 1) {
      check_corpus(r, op.built);
      first = std::move(op.built);
    } else {
      r.check(corpus_diff(first, op.built) == 0,
              "repeated corpus build is bitwise identical");
    }
  }
  std::vector<double> ms;
  for (double s : op_s) ms.push_back(s * 1e3);
  add_quality(r, first);
  const double op_ms = op_time(ms);
  r.add("throughput_per_s", static_cast<double>(kOpSamples) / (op_ms * 1e-3),
        "1/s");
  r.add("latency_ms", op_ms, "ms");
  r.op_ms = std::move(ms);
  return r;
}

}  // namespace qugeo::perfbench
