// Fault-tolerant training: kill-and-resume bit-identity, torn/corrupt
// checkpoint degradation, rotation fallback, and retry of injected faults
// at every registered site on the training path ("trainer.epoch",
// "io.atomic_write", "io.rename", "checkpoint.read", "backend.run").
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/io.h"
#include "common/parallel.h"
#include "core/serialization.h"
#include "core/trainer.h"

namespace qugeo::core {
namespace {

/// Synthetic learnable dataset (same construction as test_core_trainer):
/// targets depend deterministically on the waveform.
data::ScaledDataset synthetic_dataset(std::size_t n, std::size_t wave_size,
                                      std::size_t rows, std::size_t cols,
                                      Rng& rng) {
  data::ScaledDataset ds;
  ds.scaler_name = "synthetic";
  ds.nsrc = 1;
  ds.nt = 1;
  ds.nrec = wave_size;
  ds.vel_rows = rows;
  ds.vel_cols = cols;
  ds.samples.resize(n);
  for (auto& s : ds.samples) {
    s.waveform.resize(wave_size);
    rng.fill_uniform(s.waveform, -1, 1);
    s.velocity.resize(rows * cols);
    const std::size_t chunk = wave_size / rows;
    for (std::size_t i = 0; i < rows; ++i) {
      Real m = 0;
      for (std::size_t k = 0; k < chunk; ++k)
        m += std::abs(s.waveform[i * chunk + k]);
      const Real v = m / static_cast<Real>(chunk);
      for (std::size_t j = 0; j < cols; ++j) s.velocity[i * cols + j] = v;
    }
  }
  return ds;
}

ModelConfig tiny_model() {
  ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.batch_log2 = 0;
  mc.ansatz.blocks = 3;
  mc.decoder = DecoderKind::kLayer;
  mc.vel_rows = 3;
  mc.vel_cols = 2;
  return mc;
}

/// Flip one byte inside the framed payload region (offset past the
/// 20-byte QGF1 header), so the CRC check must fire.
void corrupt_payload_byte(const std::filesystem::path& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  ASSERT_GT(size, 32u);
  f.seekp(static_cast<std::streamoff>(size - 9));
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(size - 9));
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(size - 9));
  f.write(&byte, 1);
}

/// Overwrite the QGF1 payload-length field (file offset 8) with 2^64 - 1,
/// a length that wraps a header-plus-payload bound; the loader must still
/// report the slot as truncated.
void wrap_frame_length(const std::filesystem::path& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  const std::uint64_t huge = ~std::uint64_t{0};
  f.seekp(8);
  f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("qugeo_ckpt_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    fault::clear_degradation_events();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

/// A small fully-valid checkpoint for the corruption fixtures.
TrainCheckpoint sample_checkpoint() {
  TrainCheckpoint ck;
  ck.model_fp = 111;
  ck.train_fp = 222;
  ck.epochs_completed = 2;
  ck.shuffle_rng = Rng(5).state();
  ck.adam_t = 7;
  ck.params = {0.5, -1.25, 3.0};
  ck.adam_m = {0.1, 0.2, 0.3};
  ck.adam_v = {0.01, 0.02, 0.03};
  ck.curve = {{1.0, 0.5, 0.25}, {0.8, 0.6, 0.2}};
  return ck;
}

TEST_F(CheckpointTest, RoundTripPreservesEveryField) {
  const TrainCheckpoint ck = sample_checkpoint();
  const auto path = dir_ / "ck";
  save_train_checkpoint(path, ck);
  const TrainCheckpoint back = load_train_checkpoint(path);
  EXPECT_EQ(back.model_fp, ck.model_fp);
  EXPECT_EQ(back.train_fp, ck.train_fp);
  EXPECT_EQ(back.epochs_completed, ck.epochs_completed);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back.shuffle_rng.s[i], ck.shuffle_rng.s[i]);
  EXPECT_EQ(back.shuffle_rng.has_cached_normal, ck.shuffle_rng.has_cached_normal);
  EXPECT_EQ(back.adam_t, ck.adam_t);
  EXPECT_EQ(back.params, ck.params);
  EXPECT_EQ(back.adam_m, ck.adam_m);
  EXPECT_EQ(back.adam_v, ck.adam_v);
  ASSERT_EQ(back.curve.size(), ck.curve.size());
  for (std::size_t e = 0; e < ck.curve.size(); ++e) {
    EXPECT_EQ(back.curve[e].train_loss, ck.curve[e].train_loss);
    EXPECT_EQ(back.curve[e].test_ssim, ck.curve[e].test_ssim);
    EXPECT_EQ(back.curve[e].test_mse, ck.curve[e].test_mse);
  }
}

TEST_F(CheckpointTest, InvalidCheckpointRejectedBeforeIo) {
  TrainCheckpoint ck = sample_checkpoint();
  ck.adam_m.pop_back();
  EXPECT_THROW(save_train_checkpoint(dir_ / "bad", ck), std::invalid_argument);
  TrainCheckpoint ck2 = sample_checkpoint();
  ck2.curve.pop_back();  // curve no longer matches epochs_completed
  EXPECT_THROW(save_train_checkpoint(dir_ / "bad", ck2), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "bad"));
}

TEST_F(CheckpointTest, SlotPathAppendsIndex) {
  EXPECT_EQ(checkpoint_slot_path(dir_ / "run", 2), dir_ / "run.2");
}

// ---------------------------------------------------- failure taxonomy --

TEST_F(CheckpointTest, MissingFileIsDistinct) {
  try {
    (void)load_train_checkpoint(dir_ / "absent");
    FAIL();
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.fault(), CheckpointFault::kMissing);
    EXPECT_NE(std::string(e.what()).find("absent"), std::string::npos);
  }
}

TEST_F(CheckpointTest, BadMagicIsDistinct) {
  std::ofstream(dir_ / "junk") << "this is not a checkpoint at all";
  try {
    (void)load_train_checkpoint(dir_ / "junk");
    FAIL();
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.fault(), CheckpointFault::kBadMagic);
  }
}

TEST_F(CheckpointTest, TornWriteIsDistinct) {
  const auto path = dir_ / "ck";
  save_train_checkpoint(path, sample_checkpoint());
  // Torn write: the tail of the frame never hit the disk.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);
  try {
    (void)load_train_checkpoint(path);
    FAIL();
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.fault(), CheckpointFault::kTruncated);
    EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos);
  }
}

TEST_F(CheckpointTest, CrcCorruptionIsDistinct) {
  const auto path = dir_ / "ck";
  save_train_checkpoint(path, sample_checkpoint());
  corrupt_payload_byte(path);
  try {
    (void)load_train_checkpoint(path);
    FAIL();
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.fault(), CheckpointFault::kCrcMismatch);
  }
  EXPECT_STREQ(checkpoint_fault_name(CheckpointFault::kCrcMismatch),
               "crc-mismatch");
}

TEST_F(CheckpointTest, FingerprintAndConfigMismatchAreDistinct) {
  const TrainCheckpoint ck = sample_checkpoint();
  save_train_checkpoint(checkpoint_slot_path(dir_ / "run", 0), ck);

  // Wrong architecture: skipped, reported, nothing usable.
  fault::clear_degradation_events();
  EXPECT_FALSE(
      find_resume_checkpoint(dir_ / "run", 1, ck.model_fp + 1, ck.train_fp));
  auto events = fault::degradation_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component, "checkpoint");
  EXPECT_NE(events[0].detail.find("fingerprint-mismatch"), std::string::npos)
      << events[0].detail;

  // Wrong hyperparameters: same ladder, distinct fault name.
  fault::clear_degradation_events();
  EXPECT_FALSE(
      find_resume_checkpoint(dir_ / "run", 1, ck.model_fp, ck.train_fp + 1));
  events = fault::degradation_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].detail.find("config-mismatch"), std::string::npos)
      << events[0].detail;
}

/// Overwrite the little-endian u64 at `offset` of a checkpoint's framed
/// payload and re-frame it, so the CRC is valid and only the field lies.
/// Returns the value it replaced.
std::uint64_t patch_u64(const std::filesystem::path& path, std::size_t offset,
                        std::uint64_t value) {
  FramedPayload frame = read_framed_file(path);
  std::uint64_t old = 0;
  std::memcpy(&old, frame.payload.data() + offset, sizeof(old));
  std::memcpy(frame.payload.data() + offset, &value, sizeof(value));
  write_framed_file(path, frame.version, frame.payload);
  return old;
}

// Payload offsets (see save_train_checkpoint): magic 4, version 4, two
// fingerprints, epochs_completed, adam_t, four RNG words, the cached-normal
// flag byte and value, then the parameter count.
constexpr std::size_t kEpochsOffset = 4 + 4 + 8 + 8;
constexpr std::size_t kParamCountOffset = kEpochsOffset + 8 + 8 + 32 + 1 + 8;

TEST_F(CheckpointTest, InflatedCountsAreMalformedNotAllocated) {
  const TrainCheckpoint ck = sample_checkpoint();
  const std::size_t n = ck.params.size();
  const std::size_t curve_count_offset =
      kParamCountOffset + 8 + 3 * n * sizeof(Real);
  // A parameter count, or a matching epoch and curve count, far beyond the
  // payload: each used to reach resize() and throw bad_alloc/length_error.
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
    const auto params_path = dir_ / "params";
    save_train_checkpoint(params_path, ck);
    ASSERT_EQ(patch_u64(params_path, kParamCountOffset, huge), n);
    const auto curve_path = dir_ / "curve";
    save_train_checkpoint(curve_path, ck);
    ASSERT_EQ(patch_u64(curve_path, kEpochsOffset, huge), ck.epochs_completed);
    ASSERT_EQ(patch_u64(curve_path, curve_count_offset, huge),
              ck.curve.size());
    for (const auto& path : {params_path, curve_path}) {
      try {
        (void)load_train_checkpoint(path);
        FAIL() << path << " loaded with count " << huge;
      } catch (const CheckpointError& e) {
        EXPECT_EQ(e.fault(), CheckpointFault::kMalformed) << e.what();
      }
    }
  }
}

TEST_F(CheckpointTest, ResumeFallsBackPastInflatedCountSlot) {
  TrainCheckpoint newest = sample_checkpoint();
  newest.epochs_completed = 3;
  newest.curve.push_back({0.7, 0.7, 0.15});
  save_train_checkpoint(checkpoint_slot_path(dir_ / "run", 0),
                        sample_checkpoint());
  save_train_checkpoint(checkpoint_slot_path(dir_ / "run", 1), newest);
  patch_u64(checkpoint_slot_path(dir_ / "run", 1), kParamCountOffset,
            std::uint64_t{1} << 60);

  fault::clear_degradation_events();
  const auto best =
      find_resume_checkpoint(dir_ / "run", 2, newest.model_fp, newest.train_fp);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->epochs_completed, 2u);  // the older-but-valid slot
  const auto events = fault::degradation_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].detail.find("malformed"), std::string::npos)
      << events[0].detail;
  EXPECT_NE(events[0].detail.find("run.1"), std::string::npos);
}

// ------------------------------------------------- degradation ladder --

TEST_F(CheckpointTest, ResumeFallsBackPastCorruptNewestSlot) {
  TrainCheckpoint ck = sample_checkpoint();
  ck.epochs_completed = 3;
  ck.curve.push_back({0.7, 0.7, 0.15});
  const std::pair<void (*)(const std::filesystem::path&), const char*>
      corruptions[] = {{corrupt_payload_byte, "crc-mismatch"},
                       {wrap_frame_length, "truncated"}};
  for (const auto& [corrupt, fault_name] : corruptions) {
    save_train_checkpoint(checkpoint_slot_path(dir_ / "run", 0),
                          sample_checkpoint());
    save_train_checkpoint(checkpoint_slot_path(dir_ / "run", 1), ck);
    corrupt(checkpoint_slot_path(dir_ / "run", 1));

    fault::clear_degradation_events();
    const auto best =
        find_resume_checkpoint(dir_ / "run", 3, ck.model_fp, ck.train_fp);
    ASSERT_TRUE(best.has_value()) << fault_name;
    EXPECT_EQ(best->epochs_completed, 2u);  // the older-but-valid slot
    const auto events = fault::degradation_events();
    ASSERT_EQ(events.size(), 1u) << fault_name;
    EXPECT_NE(events[0].detail.find(fault_name), std::string::npos)
        << events[0].detail;
    EXPECT_NE(events[0].detail.find("run.1"), std::string::npos);
  }
}

TEST_F(CheckpointTest, InjectedReadFaultDegradesToNextSlot) {
  TrainCheckpoint newest = sample_checkpoint();
  newest.epochs_completed = 3;
  newest.curve.push_back({0.7, 0.7, 0.15});
  save_train_checkpoint(checkpoint_slot_path(dir_ / "run", 0), newest);
  save_train_checkpoint(checkpoint_slot_path(dir_ / "run", 1),
                        sample_checkpoint());

  // First read (slot 0, the newest) hits the injected "checkpoint.read"
  // fault; resume must degrade to slot 1 instead of dying.
  fault::clear_degradation_events();
  fault::FaultScope scope("checkpoint.read", 1);
  const auto best =
      find_resume_checkpoint(dir_ / "run", 2, newest.model_fp, newest.train_fp);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->epochs_completed, 2u);
  const auto events = fault::degradation_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].detail.find("transient"), std::string::npos);
}

TEST_F(CheckpointTest, AtomicWriteKeepsPreviousCheckpointOnInjectedRename) {
  const auto path = dir_ / "ck";
  save_train_checkpoint(path, sample_checkpoint());
  TrainCheckpoint updated = sample_checkpoint();
  updated.epochs_completed = 3;
  updated.curve.push_back({0.7, 0.7, 0.15});
  {
    // Crash in the window between the durable temp write and the rename:
    // the destination must keep its previous, fully valid contents.
    fault::FaultScope scope("io.rename", 1);
    EXPECT_THROW(save_train_checkpoint(path, updated), TransientError);
  }
  const TrainCheckpoint back = load_train_checkpoint(path);
  EXPECT_EQ(back.epochs_completed, 2u);
}

// ------------------------------------------------ resumable training --

struct TrainSetup {
  data::ScaledDataset ds;
  data::SplitView split;
  TrainConfig tc;
};

TrainSetup make_setup(const std::filesystem::path& ckpt_stem) {
  Rng rng(21);
  TrainSetup s{synthetic_dataset(12, 8, 3, 2, rng), data::split_dataset(12, 9),
               {}};
  s.tc.epochs = 6;
  s.tc.initial_lr = 0.05;
  s.tc.checkpoint_path = ckpt_stem;
  s.tc.checkpoint_every = 1;
  s.tc.checkpoint_keep = 3;
  return s;
}

/// Kill the run by injecting a fault at the start of epoch `kill_nth`
/// (1-based), resume it from disk, and require the resumed curve and the
/// final parameter vector to be bit-identical to an uninterrupted run.
void check_kill_and_resume(const std::filesystem::path& dir,
                           std::size_t kill_nth) {
  SCOPED_TRACE("kill at epoch hit " + std::to_string(kill_nth) + ", threads=" +
               std::to_string(num_threads()));
  const auto stem =
      dir / ("run_t" + std::to_string(num_threads()) + "_k" +
             std::to_string(kill_nth));
  TrainSetup ref_setup = make_setup(stem.string() + ".ref");
  Rng init_ref(22);
  QuGeoModel ref_model(tiny_model(), init_ref);
  const TrainResult reference =
      train_model(ref_model, ref_setup.ds, ref_setup.split, ref_setup.tc);
  ASSERT_EQ(reference.curve.size(), 6u);

  TrainSetup setup = make_setup(stem);
  {
    Rng init(22);
    QuGeoModel model(tiny_model(), init);
    fault::FaultScope scope("trainer.epoch", kill_nth);
    EXPECT_THROW(train_model(model, setup.ds, setup.split, setup.tc),
                 TransientError);
  }
  Rng init(23);  // different init: every parameter must come from the disk
  QuGeoModel resumed_model(tiny_model(), init);
  const TrainResult resumed =
      train_model(resumed_model, setup.ds, setup.split, setup.tc);

  EXPECT_EQ(resumed.resumed_from_epoch, kill_nth - 1);
  ASSERT_EQ(resumed.curve.size(), reference.curve.size());
  for (std::size_t e = 0; e < reference.curve.size(); ++e) {
    EXPECT_EQ(resumed.curve[e].train_loss, reference.curve[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(resumed.curve[e].test_ssim, reference.curve[e].test_ssim)
        << "epoch " << e;
    EXPECT_EQ(resumed.curve[e].test_mse, reference.curve[e].test_mse)
        << "epoch " << e;
  }
  const std::vector<Real> want = ref_model.parameters();
  const std::vector<Real> got = resumed_model.parameters();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(got[k], want[k]) << "param " << k;
}

TEST_F(CheckpointTest, KillAndResumeBitIdenticalSingleThread) {
  const std::size_t before = num_threads();
  set_num_threads(1);
  check_kill_and_resume(dir_, 2);
  check_kill_and_resume(dir_, 4);
  check_kill_and_resume(dir_, 6);
  set_num_threads(before);
}

TEST_F(CheckpointTest, KillAndResumeBitIdenticalFourThreads) {
  const std::size_t before = num_threads();
  set_num_threads(4);
  check_kill_and_resume(dir_, 3);
  check_kill_and_resume(dir_, 5);
  set_num_threads(before);
}

TEST_F(CheckpointTest, CompletedRunRestartsFromScratchCleanly) {
  TrainSetup setup = make_setup(dir_ / "run");
  Rng init(24);
  QuGeoModel model(tiny_model(), init);
  const TrainResult first = train_model(model, setup.ds, setup.split, setup.tc);
  EXPECT_EQ(first.resumed_from_epoch, 0u);

  // A second run over the same stem resumes at the final epoch and does
  // no further training: same curve, same parameters.
  Rng init2(25);
  QuGeoModel model2(tiny_model(), init2);
  const TrainResult second =
      train_model(model2, setup.ds, setup.split, setup.tc);
  EXPECT_EQ(second.resumed_from_epoch, setup.tc.epochs);
  ASSERT_EQ(second.curve.size(), first.curve.size());
  EXPECT_EQ(second.curve.back().train_loss, first.curve.back().train_loss);
  EXPECT_EQ(model2.parameters(), model.parameters());
}

TEST_F(CheckpointTest, GarbageSlotsFallBackToFreshStart) {
  TrainSetup setup = make_setup(dir_ / "run");
  setup.tc.epochs = 2;
  std::ofstream(checkpoint_slot_path(dir_ / "run", 0)) << "garbage";
  std::ofstream(checkpoint_slot_path(dir_ / "run", 1)) << "more garbage";
  fault::clear_degradation_events();
  Rng init(26);
  QuGeoModel model(tiny_model(), init);
  const TrainResult r = train_model(model, setup.ds, setup.split, setup.tc);
  EXPECT_EQ(r.resumed_from_epoch, 0u);
  EXPECT_EQ(r.curve.size(), 2u);
  EXPECT_GE(fault::degradation_events().size(), 2u);
}

TEST_F(CheckpointTest, CheckpointWriteRetriesInjectedWriteFault) {
  TrainSetup setup = make_setup(dir_ / "run");
  setup.tc.epochs = 2;
  fault::FaultScope scope("io.atomic_write", 1);
  Rng init(27);
  QuGeoModel model(tiny_model(), init);
  const TrainResult r = train_model(model, setup.ds, setup.split, setup.tc);
  EXPECT_EQ(r.curve.size(), 2u);
  // The first write attempt fired and was retried; the slot is valid.
  EXPECT_GE(scope.hits(), 2u);
  const auto best = find_resume_checkpoint(
      dir_ / "run", 3, model_fingerprint(model.config()),
      train_fingerprint(setup.tc));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->epochs_completed, 2u);
}

// ------------------------------------------------- backend fault sites --

TEST_F(CheckpointTest, PredictRetriesInjectedBackendRunFault) {
  Rng rng(31);
  data::ScaledDataset ds = synthetic_dataset(4, 8, 3, 2, rng);
  Rng init(32);
  QuGeoModel model(tiny_model(), init);
  std::vector<const data::ScaledSample*> samples;
  for (const auto& s : ds.samples) samples.push_back(&s);

  const auto clean = model.predict(samples);
  {
    fault::FaultScope scope("backend.run", 1);
    const auto retried = model.predict(samples);
    EXPECT_GE(scope.hits(), 2u);  // first attempt fired, retry re-ran
    ASSERT_EQ(retried.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i)
      EXPECT_EQ(retried[i], clean[i]);
  }
  // A fatal injection must propagate instead of being absorbed.
  fault::FaultScope fatal("backend.run", 1, 1, fault::FaultKind::kFatal);
  EXPECT_THROW((void)model.predict(samples), FatalError);
}

// ----------------------------------------------------- env overrides --

TEST_F(CheckpointTest, TrainEnvOverridesApply) {
  const std::string stem = (dir_ / "env_ck").string();
  ASSERT_EQ(setenv("QUGEO_CHECKPOINT", stem.c_str(), 1), 0);
  TrainConfig base;
  TrainConfig withPath = apply_train_env_overrides(base);
  EXPECT_EQ(withPath.checkpoint_path, std::filesystem::path(stem));
  EXPECT_EQ(withPath.checkpoint_every, 1u);  // defaulted on by the path

  ASSERT_EQ(setenv("QUGEO_CHECKPOINT_EVERY", "5", 1), 0);
  TrainConfig both = apply_train_env_overrides(base);
  EXPECT_EQ(both.checkpoint_every, 5u);

  ASSERT_EQ(setenv("QUGEO_CHECKPOINT_EVERY", "nope", 1), 0);
  EXPECT_THROW((void)apply_train_env_overrides(base), std::invalid_argument);

  ASSERT_EQ(unsetenv("QUGEO_CHECKPOINT"), 0);
  ASSERT_EQ(unsetenv("QUGEO_CHECKPOINT_EVERY"), 0);
  TrainConfig untouched = apply_train_env_overrides(base);
  EXPECT_TRUE(untouched.checkpoint_path.empty());
  EXPECT_EQ(untouched.checkpoint_every, 0u);
}

}  // namespace
}  // namespace qugeo::core
