// Model checkpointing: round trip, fingerprint mismatch rejection, and
// the error-message contract (path, expected-vs-stored fingerprint,
// parameter counts).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/serialization.h"

namespace qugeo::core {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "qugeo_ckpt_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

ModelConfig small_config() {
  ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.ansatz.blocks = 2;
  mc.decoder = DecoderKind::kLayer;
  mc.vel_rows = 3;
  mc.vel_cols = 2;
  return mc;
}

TEST_F(SerializationTest, RoundTripRestoresParameters) {
  Rng rng(1);
  QuGeoModel a(small_config(), rng);
  save_model(dir_ / "a.qgt", a);

  Rng rng2(999);  // different init
  QuGeoModel b(small_config(), rng2);
  EXPECT_NE(a.parameters()[0], b.parameters()[0]);
  load_model(dir_ / "a.qgt", b);
  EXPECT_EQ(a.parameters(), b.parameters());
}

TEST_F(SerializationTest, LoadedModelPredictsIdentically) {
  Rng rng(2);
  QuGeoModel a(small_config(), rng);
  save_model(dir_ / "m.qgt", a);
  Rng rng2(3);
  QuGeoModel b(small_config(), rng2);
  load_model(dir_ / "m.qgt", b);

  data::ScaledSample s;
  s.waveform.resize(8);
  rng.fill_uniform(s.waveform, -1, 1);
  s.velocity.assign(6, 0.5);
  const data::ScaledSample* chunk[] = {&s};
  EXPECT_EQ(a.predict(chunk)[0], b.predict(chunk)[0]);
}

TEST_F(SerializationTest, FingerprintMismatchRejected) {
  Rng rng(4);
  QuGeoModel a(small_config(), rng);
  save_model(dir_ / "a.qgt", a);

  ModelConfig other = small_config();
  other.ansatz.blocks = 3;  // different architecture
  QuGeoModel b(other, rng);
  EXPECT_THROW(load_model(dir_ / "a.qgt", b), std::runtime_error);
}

TEST_F(SerializationTest, DecoderKindChangesFingerprint) {
  ModelConfig ly = small_config();
  ModelConfig px = small_config();
  px.decoder = DecoderKind::kPixel;
  px.vel_rows = 2;
  EXPECT_NE(model_fingerprint(ly), model_fingerprint(px));
}

TEST_F(SerializationTest, GroupingChangesFingerprint) {
  ModelConfig a = small_config();
  ModelConfig b = small_config();
  b.group_data_qubits = {2, 1};
  EXPECT_NE(model_fingerprint(a), model_fingerprint(b));
}

TEST_F(SerializationTest, MissingFileThrows) {
  Rng rng(5);
  QuGeoModel m(small_config(), rng);
  EXPECT_THROW(load_model(dir_ / "absent.qgt", m), std::runtime_error);
}

TEST_F(SerializationTest, MismatchMessageNamesPathAndFingerprints) {
  Rng rng(6);
  QuGeoModel a(small_config(), rng);
  save_model(dir_ / "a.qgt", a);

  ModelConfig other = small_config();
  other.ansatz.blocks = 3;
  QuGeoModel b(other, rng);
  try {
    load_model(dir_ / "a.qgt", b);
    FAIL() << "mismatch must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("a.qgt"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(model_fingerprint(a.config()))),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(std::to_string(model_fingerprint(other))),
              std::string::npos)
        << msg;
  }
}

TEST_F(SerializationTest, TrainFingerprintTracksHyperparameters) {
  TrainConfig base;
  EXPECT_EQ(train_fingerprint(base), train_fingerprint(base));
  TrainConfig epochs = base;
  epochs.epochs += 1;
  EXPECT_NE(train_fingerprint(base), train_fingerprint(epochs));
  TrainConfig lr = base;
  lr.initial_lr *= 0.5;
  EXPECT_NE(train_fingerprint(base), train_fingerprint(lr));
  TrainConfig seed = base;
  seed.shuffle_seed += 1;
  EXPECT_NE(train_fingerprint(base), train_fingerprint(seed));
  // Checkpoint knobs must NOT change the fingerprint: resuming with a
  // different rotation depth or interval is the same optimization run.
  TrainConfig knobs = base;
  knobs.checkpoint_every = 7;
  knobs.checkpoint_keep = 9;
  EXPECT_EQ(train_fingerprint(base), train_fingerprint(knobs));
}

TEST_F(SerializationTest, DefaultTrainFingerprintIsPinned) {
  // Checkpoints already on disk carry this value; changing it refuses
  // every default-config resume.
  EXPECT_EQ(train_fingerprint(TrainConfig{}), 12042924359264131782ULL);
}

}  // namespace
}  // namespace qugeo::core
