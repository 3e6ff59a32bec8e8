#include "core/trainer.h"

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/env.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "core/serialization.h"
#include "metrics/image_metrics.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"

namespace qugeo::core {

TrainConfig apply_train_env_overrides(TrainConfig base) {
  if (const char* path = std::getenv("QUGEO_CHECKPOINT")) {
    if (*path != '\0') {
      base.checkpoint_path = path;
      if (base.checkpoint_every == 0) base.checkpoint_every = 1;
    }
  }
  base.checkpoint_every =
      env::parse_env_positive("QUGEO_CHECKPOINT_EVERY", base.checkpoint_every);
  return base;
}

EvalMetrics evaluate_predictions(const std::vector<std::vector<Real>>& preds,
                                 const data::ScaledDataset& ds,
                                 const std::vector<std::size_t>& indices) {
  EvalMetrics m;
  if (indices.empty()) return m;
  metrics::SsimOptions ssim_opts;
  ssim_opts.data_range = 1.0;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::vector<Real>& target = ds.samples[indices[i]].velocity;
    m.ssim += metrics::ssim(preds[i], target, ds.vel_rows, ds.vel_cols, ssim_opts);
    m.mse += metrics::mse(preds[i], target);
  }
  m.ssim /= static_cast<Real>(indices.size());
  m.mse /= static_cast<Real>(indices.size());
  return m;
}

EvalMetrics evaluate_model(const QuGeoModel& model, const data::ScaledDataset& ds,
                           const std::vector<std::size_t>& indices) {
  std::vector<const data::ScaledSample*> samples;
  samples.reserve(indices.size());
  for (std::size_t i : indices) samples.push_back(&ds.samples[i]);
  return evaluate_predictions(model.predict(samples), ds, indices);
}

TrainResult train_model(QuGeoModel& model, const data::ScaledDataset& ds,
                        const data::SplitView& split,
                        const TrainConfig& config_in) {
  const TrainConfig config = apply_train_env_overrides(config_in);
  TrainResult result;
  std::vector<Real> params = model.parameters();
  nn::AdamFlat opt(params.size());
  const nn::CosineAnnealingLr schedule(config.initial_lr, config.epochs);
  Rng shuffle_rng(config.shuffle_seed);
  const std::size_t bs = model.batch_size();

  const bool ckpt_on =
      !config.checkpoint_path.empty() && config.checkpoint_every > 0;
  const std::uint64_t model_fp = model_fingerprint(model.config());
  const std::uint64_t train_fp = train_fingerprint(config);
  const std::size_t keep = std::max<std::size_t>(1, config.checkpoint_keep);

  std::size_t start_epoch = 0;
  if (ckpt_on && config.resume) {
    if (auto ck = find_resume_checkpoint(config.checkpoint_path, keep,
                                         model_fp, train_fp)) {
      params = std::move(ck->params);
      model.set_parameters(params);
      opt.restore({ck->adam_t, std::move(ck->adam_m), std::move(ck->adam_v)});
      shuffle_rng.set_state(ck->shuffle_rng);
      result.curve = std::move(ck->curve);
      start_epoch = static_cast<std::size_t>(ck->epochs_completed);
      result.resumed_from_epoch = start_epoch;
      log_info("train_model: resumed from checkpoint at epoch ", start_epoch,
               "/", config.epochs);
    }
  }

  // A checkpoint captures the state *between* epochs: the shuffle-RNG
  // state recorded here has already consumed this epoch's permutation
  // draw, so a resumed run replays exactly the sequence an uninterrupted
  // run would have produced.
  const auto write_checkpoint = [&](std::size_t epochs_completed) {
    TrainCheckpoint ck;
    ck.model_fp = model_fp;
    ck.train_fp = train_fp;
    ck.epochs_completed = epochs_completed;
    ck.shuffle_rng = shuffle_rng.state();
    nn::AdamFlat::State opt_state = opt.state();
    ck.adam_t = opt_state.t;
    ck.adam_m = std::move(opt_state.m);
    ck.adam_v = std::move(opt_state.v);
    ck.params = params;
    ck.curve = result.curve;
    // Slot index depends only on the completed-epoch count, so a resumed
    // run rotates through the same files as an uninterrupted one.
    const std::size_t slot =
        (epochs_completed / config.checkpoint_every) % keep;
    const std::filesystem::path path =
        checkpoint_slot_path(config.checkpoint_path, slot);
    fault::retry_on_transient(
        "checkpoint write to " + path.string(), fault::RetryPolicy{},
        [&] { save_train_checkpoint(path, ck); });
  };

  std::vector<Real> grads(params.size());
  for (std::size_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
    fault::site("trainer.epoch");
    const auto order = shuffle_rng.permutation(split.train.size());
    Real epoch_loss = 0;
    std::size_t seen = 0;
    const std::size_t total_chunks = (order.size() + bs - 1) / bs;
    // Chunks inside one accumulation group all see the same parameters, so
    // they are independent circuit executions: fan them out over the pool,
    // each into its own gradient slot, then fold the slots in chunk order.
    // The fold order depends only on the group, never on the pool size, so
    // training is bit-identical for any QUGEO_THREADS value.
    std::size_t group_start = 0;
    while (group_start < total_chunks) {
      const std::size_t remaining = total_chunks - group_start;
      const std::size_t group =
          config.chunks_per_step == 0 ? remaining
                                      : std::min(config.chunks_per_step, remaining);
      std::vector<std::vector<Real>> chunk_grads(group);
      std::vector<Real> chunk_loss(group, Real(0));
      parallel_for(0, group, [&](std::size_t g) {
        chunk_grads[g].assign(params.size(), Real(0));
        std::vector<const data::ScaledSample*> chunk(bs);
        const std::size_t pos = (group_start + g) * bs;
        for (std::size_t b = 0; b < bs; ++b) {
          const std::size_t oi = std::min(pos + b, order.size() - 1);
          chunk[b] = &ds.samples[split.train[order[oi]]];
        }
        chunk_loss[g] = model.loss_and_gradient(chunk, chunk_grads[g]);
      });
      std::fill(grads.begin(), grads.end(), Real(0));
      for (std::size_t g = 0; g < group; ++g) {
        for (std::size_t k = 0; k < grads.size(); ++k)
          grads[k] += chunk_grads[g][k];
        epoch_loss += chunk_loss[g];
      }
      seen += group * bs;
      // Mean gradient over the accumulated samples.
      const Real inv = Real(1) / static_cast<Real>(group * bs);
      for (Real& g : grads) g *= inv;
      opt.step(params, grads, schedule.lr(epoch));
      model.set_parameters(params);
      group_start += group;
    }

    EpochRecord rec;
    rec.train_loss = epoch_loss / static_cast<Real>(seen == 0 ? 1 : seen);
    const EvalMetrics ev = evaluate_model(model, ds, split.test);
    rec.test_ssim = ev.ssim;
    rec.test_mse = ev.mse;
    result.curve.push_back(rec);
    if (config.log_every != 0 && (epoch + 1) % config.log_every == 0)
      log_info("train_model: epoch ", epoch + 1, "/", config.epochs,
               " loss=", rec.train_loss, " ssim=", rec.test_ssim,
               " mse=", rec.test_mse);

    const std::size_t completed = epoch + 1;
    if (ckpt_on && (completed % config.checkpoint_every == 0 ||
                    completed == config.epochs))
      write_checkpoint(completed);
  }

  if (!result.curve.empty()) {
    result.final_ssim = result.curve.back().test_ssim;
    result.final_mse = result.curve.back().test_mse;
  }
  return result;
}

}  // namespace qugeo::core
