// The `train_vqc` and `train_cnn` workloads.
//
// train_vqc is Table 1's shape: core::run_vqc_experiment for Q-M-LY (12
// blocks) on Q-D-FW at QuBatch 1, 2 and 4, Adam lr 0.1 with the cosine
// schedule. train_cnn is Table 2's classical rows: core::run_classical_
// experiment for CNN-PX, CNN-LY and INet-ref on Q-D-FW at the harness
// learning rates. One operation is one round over the three models; the
// round repeats until the run's time is up, and every repeat must match
// the first bitwise. Both read the verified corpus of their seed.
//
// Traced, train_vqc replays core::train_model's loop through its public
// calls with a span around each; train_cnn times each public training
// call and probes mirrored nn stacks.
#include <cmath>
#include <functional>
#include <limits>

#include "bench.h"
#include "common/parallel.h"
#include "core/experiment.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "nn_probe.h"
#include "qsim_probe.h"

namespace qugeo::perfbench {
namespace {

// Short rounds, so one run holds enough of them for a robust median.
constexpr std::size_t kVqcEpochs = 100;
constexpr std::size_t kCnnEpochs = 2;
constexpr std::size_t kSetupReps = 31;

core::ExperimentSpec vqc_spec(const Options& opt, Index batch_log2) {
  core::ExperimentSpec spec;
  spec.dataset = "Q-D-FW";
  spec.decoder = core::DecoderKind::kLayer;
  spec.batch_log2 = batch_log2;
  spec.blocks = 12;
  spec.init_seed = derive(opt.seed, 1);
  return spec;
}

core::TrainConfig train_config(const Options& opt, std::size_t epochs,
                               Real lr) {
  core::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.initial_lr = lr;
  cfg.shuffle_seed = derive(opt.seed, 2);
  return cfg;
}

struct CnnNet {
  const char* tag;
  core::DecoderKind decoder;
  bool inversion_net;
  Real lr;
};
constexpr CnnNet kCnnNets[3] = {
    {"px", core::DecoderKind::kPixel, false, 0.01},
    {"ly", core::DecoderKind::kLayer, false, 0.01},
    {"inet", core::DecoderKind::kPixel, true, 0.003},
};

core::QuGeoModel make_vqc(const data::ExperimentData& data,
                          const core::ExperimentSpec& spec) {
  // The model run_vqc_experiment builds for this spec.
  const data::ScaledDataset& ds = core::select_dataset(data, spec.dataset);
  core::ModelConfig mc;
  mc.group_data_qubits = spec.group_data_qubits;
  mc.batch_log2 = spec.batch_log2;
  mc.ansatz.blocks = spec.blocks;
  mc.ansatz.entangle_every = spec.entangle_every;
  mc.decoder = spec.decoder;
  mc.vel_rows = ds.vel_rows;
  mc.vel_cols = ds.vel_cols;
  mc.execution = spec.execution;
  Rng init_rng(spec.init_seed);
  return core::QuGeoModel(mc, init_rng);
}

core::ClassicalConfig cnn_config(const data::ScaledDataset& ds,
                                 const CnnNet& net) {
  core::ClassicalConfig cc;
  cc.decoder = net.decoder;
  cc.nsrc = ds.nsrc;
  cc.nt = ds.nt;
  cc.nrec = ds.nrec;
  cc.vel_rows = ds.vel_rows;
  cc.vel_cols = ds.vel_cols;
  cc.inversion_net_reference = net.inversion_net;
  return cc;
}

struct Round {
  std::vector<core::ExperimentResult> results;
  double seconds = 0;  ///< wall time of the training calls
};

Round vqc_round(const data::ExperimentData& data, const Options& opt) {
  Round round;
  for (Index b = 0; b < 3; ++b) {
    const auto t0 = Clock::now();
    round.results.push_back(core::run_vqc_experiment(
        data, vqc_spec(opt, b), train_config(opt, kVqcEpochs, 0.1)));
    round.seconds += seconds_since(t0);
  }
  return round;
}

Round cnn_round(const data::ExperimentData& data, const Options& opt,
                Trace* trace) {
  Round round;
  for (const CnnNet& net : kCnnNets) {
    const ScopedSpan span(trace, std::string("core.cnn_train.") + net.tag);
    const auto t0 = Clock::now();
    round.results.push_back(core::run_classical_experiment(
        data, "Q-D-FW", net.decoder, train_config(opt, kCnnEpochs, net.lr),
        derive(opt.seed, 3), net.inversion_net));
    round.seconds += seconds_since(t0);
  }
  return round;
}

double curve_diff(const core::TrainResult& a, const core::TrainResult& b) {
  if (a.curve.size() != b.curve.size())
    return std::numeric_limits<double>::infinity();
  double d = 0;
  for (std::size_t e = 0; e < a.curve.size(); ++e) {
    d = std::max(d, std::abs(a.curve[e].train_loss - b.curve[e].train_loss));
    d = std::max(d, std::abs(a.curve[e].test_ssim - b.curve[e].test_ssim));
    d = std::max(d, std::abs(a.curve[e].test_mse - b.curve[e].test_mse));
  }
  return d;
}

double round_diff(const Round& a, const Round& b) {
  if (a.results.size() != b.results.size())
    return std::numeric_limits<double>::infinity();
  double d = 0;
  for (std::size_t i = 0; i < a.results.size(); ++i)
    d = std::max(d, curve_diff(a.results[i].train, b.results[i].train));
  return d;
}

void check_round(Result& r, const Round& round, std::size_t epochs) {
  for (const core::ExperimentResult& res : round.results) {
    const core::TrainResult& t = res.train;
    bool ok = t.curve.size() == epochs && std::isfinite(t.final_ssim) &&
              t.final_ssim > -1 && t.final_ssim <= 1 &&
              std::isfinite(t.final_mse) && t.final_mse > 0 &&
              t.final_mse < 1;
    for (const core::EpochRecord& e : t.curve)
      ok = ok && std::isfinite(e.train_loss) && e.train_loss >= 0 &&
           std::isfinite(e.test_ssim) && std::isfinite(e.test_mse);
    r.check(ok, res.model_name + ": SSIM, MSE and loss curve finite and in "
                                 "range");
  }
}

/// Mean final test SSIM and MSE over the round's models.
void add_quality(Result& r, const Round& round) {
  double ssim = 0, mse = 0;
  for (const core::ExperimentResult& res : round.results) {
    ssim += res.train.final_ssim;
    mse += res.train.final_mse;
  }
  const auto n = static_cast<double>(round.results.size());
  r.quality["core.final_ssim"] = ssim / n;
  r.quality["core.final_mse"] = mse / n;
}

/// The corpus and the initialization and shuffle seeds the run trains from.
std::uint64_t fingerprint(const Options& opt, const data::ExperimentData& d) {
  return digest(d.qdfw, digest(d.dsample, derive(opt.seed, 1) ^
                                              derive(opt.seed, 2)));
}

/// The untraced measurement both training workloads share.
Result measure_rounds(
    const Options& opt, std::size_t epochs,
    const std::function<void(const data::ExperimentData&)>& construct,
    const std::function<Round(const data::ExperimentData&)>& round_fn) {
  Result r;
  // Set-up: corpus load and verification, model construction.
  data::ExperimentData data;
  std::vector<double> setup;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    data = load_verified_corpus(opt);
    construct(data);
    setup.push_back(seconds_since(t0));
  }
  r.add("setup_s", op_time(setup), "s");
  r.input_fingerprint = fingerprint(opt, data);

  std::vector<Round> rounds;
  const auto start = Clock::now();
  while (rounds.empty() || seconds_since(start) < opt.seconds) {
    rounds.push_back(round_fn(data));
    r.attempted += rounds.back().results.size();
    if (rounds.size() == 1)
      check_round(r, rounds.front(), epochs);
    else
      r.check(round_diff(rounds.front(), rounds.back()) == 0,
              "repeated training round is bitwise identical");
  }
  const double items = static_cast<double>(
      epochs * data.split().train.size() * rounds.front().results.size());
  std::vector<double> ms;
  for (const Round& rd : rounds) ms.push_back(rd.seconds * 1e3);
  const double op_ms = op_time(ms);
  r.add("throughput_per_s", items / (op_ms * 1e-3), "1/s");
  r.add("latency_ms", op_ms, "ms");
  r.op_ms = std::move(ms);
  add_quality(r, rounds.front());
  return r;
}

// ------------------------------------------------------ traced train_vqc --

struct PoolUse {
  double busy_s = 0;      ///< summed per-chunk busy time
  double capacity_s = 0;  ///< threads x fan-out wall time
};

/// core::train_model's loop (checkpointing off) through its public calls.
core::TrainResult replay_train(core::QuGeoModel& model,
                               const data::ScaledDataset& ds,
                               const data::SplitView& split,
                               const core::TrainConfig& config_in,
                               const std::string& tag, Trace& trace,
                               PoolUse& pool) {
  const core::TrainConfig config = core::apply_train_env_overrides(config_in);
  const ScopedSpan root(&trace, "core.train_model." + tag);
  core::TrainResult result;
  std::vector<Real> params = model.parameters();
  nn::AdamFlat opt(params.size());
  const nn::CosineAnnealingLr schedule(config.initial_lr, config.epochs);
  Rng shuffle_rng(config.shuffle_seed);
  const std::size_t bs = model.batch_size();
  const auto threads = static_cast<double>(num_threads());
  const std::string chunk_span = "core.loss_and_gradient." + tag;

  std::vector<Real> grads(params.size());
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const ScopedSpan epoch_span(&trace, "core.epoch",
                                static_cast<std::int64_t>(epoch));
    std::vector<std::size_t> order;
    {
      const ScopedSpan span(&trace, "common.rng_permutation");
      order = shuffle_rng.permutation(split.train.size());
    }
    Real epoch_loss = 0;
    std::size_t seen = 0;
    const std::size_t total_chunks = (order.size() + bs - 1) / bs;
    std::size_t group_start = 0;
    while (group_start < total_chunks) {
      const std::size_t remaining = total_chunks - group_start;
      const std::size_t group =
          config.chunks_per_step == 0
              ? remaining
              : std::min(config.chunks_per_step, remaining);
      const std::size_t shards =
          config.grad_shards == 0 ? group : std::min(config.grad_shards, group);
      const std::size_t per_shard = group / shards;
      const std::size_t extra = group % shards;
      std::vector<std::vector<Real>> shard_grads(shards);
      std::vector<Real> chunk_loss(group, Real(0));
      std::vector<Clock::time_point> t_begin(group), t_end(group);
      {
        const ScopedSpan span(&trace, "core.grad_fanout",
                              static_cast<std::int64_t>(group_start));
        const auto fan0 = Clock::now();
        parallel_for(0, shards, [&](std::size_t s) {
          const std::size_t begin = s * per_shard + std::min(s, extra);
          const std::size_t end = begin + per_shard + (s < extra ? 1 : 0);
          shard_grads[s].assign(params.size(), Real(0));
          std::vector<const data::ScaledSample*> chunk(bs);
          for (std::size_t g = begin; g < end; ++g) {
            const std::size_t pos = (group_start + g) * bs;
            for (std::size_t b = 0; b < bs; ++b) {
              const std::size_t oi = std::min(pos + b, order.size() - 1);
              chunk[b] = &ds.samples[split.train[order[oi]]];
            }
            t_begin[g] = Clock::now();
            chunk_loss[g] = model.loss_and_gradient(chunk, shard_grads[s]);
            t_end[g] = Clock::now();
          }
        });
        pool.capacity_s += threads * seconds_since(fan0);
        for (std::size_t g = 0; g < group; ++g) {
          trace.add(chunk_span, t_begin[g], t_end[g],
                    static_cast<std::int64_t>(group_start + g));
          pool.busy_s +=
              std::chrono::duration<double>(t_end[g] - t_begin[g]).count();
        }
      }
      {
        const ScopedSpan span(&trace, "core.grad_fold");
        std::fill(grads.begin(), grads.end(), Real(0));
        for (std::size_t s = 0; s < shards; ++s)
          for (std::size_t k = 0; k < grads.size(); ++k)
            grads[k] += shard_grads[s][k];
        for (std::size_t g = 0; g < group; ++g) epoch_loss += chunk_loss[g];
        seen += group * bs;
        const Real inv = Real(1) / static_cast<Real>(group * bs);
        for (Real& g : grads) g *= inv;
      }
      const Real lr = schedule.lr(epoch);
      {
        const ScopedSpan span(&trace, "nn.adamflat_step");
        opt.step(params, grads, lr);
      }
      {
        const ScopedSpan span(&trace, "core.set_parameters");
        model.set_parameters(params);
      }
      group_start += group;
    }

    core::EpochRecord rec;
    rec.train_loss = epoch_loss / static_cast<Real>(seen == 0 ? 1 : seen);
    {
      const ScopedSpan span(&trace, "core.evaluate_model");
      std::vector<const data::ScaledSample*> samples;
      for (std::size_t i : split.test) samples.push_back(&ds.samples[i]);
      std::vector<std::vector<Real>> preds;
      {
        const ScopedSpan predict(&trace, "core.predict");
        preds = model.predict(samples);
      }
      const ScopedSpan eval(&trace, "core.evaluate_predictions");
      const core::EvalMetrics ev =
          core::evaluate_predictions(preds, ds, split.test);
      rec.test_ssim = ev.ssim;
      rec.test_mse = ev.mse;
    }
    result.curve.push_back(rec);
  }
  if (!result.curve.empty()) {
    result.final_ssim = result.curve.back().test_ssim;
    result.final_mse = result.curve.back().test_mse;
  }
  return result;
}

double hit_ratio(std::size_t hits, std::size_t misses) {
  return hits + misses == 0 ? 0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

Result trace_vqc(const Options& opt) {
  Result r;
  Trace trace;
  const data::ExperimentData data = load_verified_corpus(opt, &trace);
  r.input_fingerprint = fingerprint(opt, data);
  const Round ref = vqc_round(data, opt);
  check_round(r, ref, kVqcEpochs);
  add_quality(r, ref);

  PoolUse pool;
  double diff = 0;
  std::size_t hits = 0, compiles = 0, plan_hits = 0, plan_compiles = 0;
  const auto t0 = Clock::now();
  for (Index b = 0; b < 3; ++b) {
    const std::string tag = "b" + std::to_string(std::size_t{1} << b);
    const core::ExperimentSpec spec = vqc_spec(opt, b);
    core::QuGeoModel model = make_vqc(data, spec);
    const core::TrainResult replay =
        replay_train(model, core::select_dataset(data, spec.dataset),
                     data.split(), train_config(opt, kVqcEpochs, 0.1), tag,
                     trace, pool);
    diff = std::max(diff, curve_diff(replay, ref.results[b].train));
    const auto& cache = *model.compile_cache();
    hits += cache.hit_count();
    compiles += cache.compile_count();
    plan_hits += cache.plan_hit_count();
    plan_compiles += cache.plan_compile_count();
  }
  const double traced_s = seconds_since(t0);
  r.check(diff == 0, "replayed VQC curves equal core::train_model bitwise");

  double train_s = 0;
  for (const char* tag : {"b1", "b2", "b4"}) {
    train_s += trace.total_s(std::string("core.train_model.") + tag);
    r.add(std::string("core.loss_and_gradient_us.") + tag,
          trace.mean_us(std::string("core.loss_and_gradient.") + tag), "us");
  }
  r.add("core.grad_share",
        (trace.total_s("core.grad_fanout") + trace.total_s("core.grad_fold")) /
            train_s,
        "ratio");
  r.add("core.eval_share", trace.total_s("core.evaluate_model") / train_s,
        "ratio");
  r.add("core.optimizer_share",
        (trace.total_s("nn.adamflat_step") +
         trace.total_s("core.set_parameters")) /
            train_s,
        "ratio");
  r.add("core.predict_us",
        trace.total_s("core.predict") * 1e6 /
            static_cast<double>(trace.count("core.predict") *
                                data.split().test.size()),
        "us");
  r.add("nn.adamflat_us", trace.mean_us("nn.adamflat_step"), "us");
  r.add("common.pool_busy_share", pool.busy_s / pool.capacity_s, "ratio");
  r.add("qsim.compile_hit_ratio", hit_ratio(hits, compiles), "ratio");
  r.add("qsim.plan_hit_ratio", hit_ratio(plan_hits, plan_compiles), "ratio");
  r.add("data.cache_read_ms", trace.total_s("data.load_scaled_dataset") * 1e3,
        "ms");

  double adjoint = 0, path = 0;
  for (Index b = 0; b < 3; ++b) {
    const std::string tag = "b" + std::to_string(std::size_t{1} << b);
    const QsimProbe q = probe_qsim(b, data.qdfw, derive(opt.seed, 4));
    r.add("qsim.forward_us." + tag, q.forward_us, "us");
    r.add("qsim.adjoint_us." + tag, q.adjoint_us, "us");
    adjoint += q.adjoint_us;
    path += q.encode_us + q.forward_us + q.decode_us + q.adjoint_us;
  }
  r.add("qsim.adjoint_share", adjoint / path, "ratio");
  r.add("metrics.ssim_us", probe_ssim_us(data.qdfw), "us");

  add_trace_summary(r, trace, opt, traced_s, ref.seconds, diff);
  return r;
}

// ------------------------------------------------------ traced train_cnn --

Result trace_cnn(const Options& opt) {
  Result r;
  Trace trace;
  const data::ExperimentData data = load_verified_corpus(opt, &trace);
  r.input_fingerprint = fingerprint(opt, data);
  const Round ref = cnn_round(data, opt, nullptr);
  check_round(r, ref, kCnnEpochs);
  add_quality(r, ref);

  const auto t0 = Clock::now();
  const Round traced = cnn_round(data, opt, &trace);
  const double traced_s = seconds_since(t0);
  const double diff = round_diff(traced, ref);
  r.check(diff == 0, "traced CNN training equals the untraced run bitwise");

  for (const CnnNet& net : kCnnNets) {
    r.add(std::string("core.cnn_train_s.") + net.tag,
          trace.total_s(std::string("core.cnn_train.") + net.tag), "s");
    Rng rng(derive(opt.seed, 5));
    const NnProbe p = probe_net(
        net.inversion_net ? NetShape::kInet
                          : (net.decoder == core::DecoderKind::kPixel
                                 ? NetShape::kPx
                                 : NetShape::kLy),
        1, rng);
    Rng net_rng(derive(opt.seed, 3));
    const core::ClassicalFwiNet real(cnn_config(data.qdfw, net), net_rng);
    r.check(p.params == real.param_count(),
            std::string("mirrored ") + net.tag +
                " stack has ClassicalFwiNet::param_count() parameters");
    add_nn_metrics(r, net.tag, p);
    if (net.inversion_net) r.add("nn.conv_share.inet", p.conv_share, "ratio");
  }
  r.add("metrics.ssim_us", probe_ssim_us(data.qdfw), "us");
  r.add("data.cache_read_ms", trace.total_s("data.load_scaled_dataset") * 1e3,
        "ms");
  add_trace_summary(r, trace, opt, traced_s, ref.seconds, diff);
  return r;
}

}  // namespace

Result run_train_vqc(const Options& opt) {
  if (opt.trace) return trace_vqc(opt);
  return measure_rounds(
      opt, kVqcEpochs,
      [&](const data::ExperimentData& data) {
        for (Index b = 0; b < 3; ++b) (void)make_vqc(data, vqc_spec(opt, b));
      },
      [&](const data::ExperimentData& data) {
        return vqc_round(data, opt);
      });
}

Result run_train_cnn(const Options& opt) {
  if (opt.trace) return trace_cnn(opt);
  CpuRotation cpus;
  return measure_rounds(
      opt, kCnnEpochs,
      [&](const data::ExperimentData& data) {
        for (const CnnNet& net : kCnnNets) {
          Rng rng(derive(opt.seed, 3));
          (void)core::ClassicalFwiNet(cnn_config(data.qdfw, net), rng);
        }
      },
      [&](const data::ExperimentData& data) {
        cpus.next();
        return cnn_round(data, opt, nullptr);
      });
}

}  // namespace qugeo::perfbench
