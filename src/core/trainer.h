// Training loop for QuGeoModel: Adam over the flat parameter vector with
// cosine-annealed learning rate (the paper's setup: Adam, initial lr 0.1,
// cosine annealing, 500 epochs), evaluating SSIM/MSE on the test split
// after every epoch so the Figure 5(b)/(c) convergence curves can be
// regenerated.
//
// Gradients always come from the exact adjoint statevector pass over the
// ansatz as built; the per-epoch
// evaluation (evaluate_model -> predict) runs through the model's
// configured qsim::ExecutionConfig backend, so training curves can be
// recorded under exact-channel or trajectory noise — or from a finite
// measurement budget (ExecutionConfig::shots) — without touching this file.
//
// Each accumulation group fans its QuBatch chunks data-parallel over the
// shared pool, one gradient slot per chunk; the slots fold in chunk order
// — deterministic and bit-identical for any QUGEO_THREADS value.
//
// Fault tolerance: when TrainConfig::checkpoint_path is set, the loop
// atomically persists a versioned TrainCheckpoint (core/serialization —
// parameters, full Adam state, shuffle-RNG state, epoch curve) every
// checkpoint_every epochs into a rotation of checkpoint_keep slots, and on
// start resumes from the newest valid one. A killed run resumed this way
// produces a bit-identical final parameter vector and epoch curve to an
// uninterrupted run (pinned by tests/test_core_checkpoint.cpp under 1 and
// 4 threads). Invalid slots (torn, CRC-corrupt, wrong architecture) are
// skipped with a degradation report; checkpoint writes retry transient
// faults with exponential backoff (common/fault.h).
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/model.h"
#include "data/cache.h"

namespace qugeo::core {

struct TrainConfig {
  std::size_t epochs = 150;
  Real initial_lr = 0.1;
  std::uint64_t shuffle_seed = 7;
  std::size_t log_every = 0;  ///< 0 = silent
  /// Gradient-accumulation granularity: number of QuBatch chunks folded
  /// into one Adam step. 0 = full-batch (one step per epoch). The default
  /// of 8 (mini-batch) converges fastest on the FWI task at lr 0.1.
  std::size_t chunks_per_step = 8;
  /// Not a knob: every chunk of an accumulation group owns one gradient
  /// slot. Exists only for perfbench's replay, where 0 means one slot per
  /// chunk. qugeo-lint: no-env(a compile-time constant, not a setting).
  static constexpr std::size_t grad_shards = 0;
  /// Checkpoint file stem; empty disables checkpointing. Slot k of the
  /// rotation is written to `<checkpoint_path>.<k>`.
  std::filesystem::path checkpoint_path;
  /// Epochs between checkpoints (0 disables checkpointing even with a
  /// path set). The final epoch always checkpoints when enabled.
  std::size_t checkpoint_every = 0;
  /// Rotation depth: how many checkpoint slots to cycle through. Keeping
  /// more than one means a torn/corrupt newest slot degrades to the
  /// previous one instead of losing the run.
  std::size_t checkpoint_keep = 3;
  /// Resume from the newest valid checkpoint slot on start (no-op when
  /// none exists or checkpointing is disabled).
  bool resume = true;
};

/// Apply the training environment overrides on top of `base`:
/// QUGEO_CHECKPOINT (checkpoint file stem) and QUGEO_CHECKPOINT_EVERY
/// (positive epoch interval; defaults to 1 when only the path is set).
/// Unset variables leave `base` untouched. train_model applies this to
/// its config on entry, so any long run can be made resumable from the
/// environment without recompiling.
[[nodiscard]] TrainConfig apply_train_env_overrides(TrainConfig base);

struct EpochRecord {
  Real train_loss = 0;  ///< mean per-sample SSE over the epoch
  Real test_ssim = 0;
  Real test_mse = 0;
};

struct TrainResult {
  std::vector<EpochRecord> curve;
  Real final_ssim = 0;
  Real final_mse = 0;
  /// Epoch the run actually started from (> 0 when resumed).
  std::size_t resumed_from_epoch = 0;
};

struct EvalMetrics {
  Real ssim = 0;
  Real mse = 0;
};

/// Mean SSIM/MSE of predicted maps against the dataset targets at the given
/// indices (SSIM window shrunk for 8x8 maps, data range fixed to 1).
[[nodiscard]] EvalMetrics evaluate_predictions(
    const std::vector<std::vector<Real>>& preds, const data::ScaledDataset& ds,
    const std::vector<std::size_t>& indices);

/// Evaluate a model on a dataset subset.
[[nodiscard]] EvalMetrics evaluate_model(const QuGeoModel& model,
                                         const data::ScaledDataset& ds,
                                         const std::vector<std::size_t>& indices);

/// Train in place; returns per-epoch records and final test metrics.
TrainResult train_model(QuGeoModel& model, const data::ScaledDataset& ds,
                        const data::SplitView& split, const TrainConfig& config);

}  // namespace qugeo::core
