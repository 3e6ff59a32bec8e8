// Scaled-dataset serialization round trip and env-driven configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/io.h"
#include "data/cache.h"

namespace qugeo::data {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "qugeo_cache_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

ScaledDataset tiny_dataset(std::size_t n) {
  ScaledDataset ds;
  ds.scaler_name = "test";
  ds.samples.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ds.samples[i].waveform.assign(ds.waveform_size(),
                                  static_cast<Real>(i) + 0.5);
    ds.samples[i].velocity.assign(ds.velocity_size(),
                                  static_cast<Real>(i) * 0.1);
  }
  return ds;
}

TEST_F(CacheTest, SaveLoadRoundTrip) {
  const ScaledDataset ds = tiny_dataset(4);
  save_scaled_dataset(dir_ / "ds", ds);
  EXPECT_TRUE(scaled_dataset_exists(dir_ / "ds"));
  const ScaledDataset back = load_scaled_dataset(dir_ / "ds");
  EXPECT_EQ(back.size(), 4u);
  EXPECT_EQ(back.nsrc, ds.nsrc);
  EXPECT_EQ(back.vel_rows, ds.vel_rows);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.samples[i].waveform, ds.samples[i].waveform);
    EXPECT_EQ(back.samples[i].velocity, ds.samples[i].velocity);
  }
}

TEST_F(CacheTest, WaveShapeThatOverflowsIsRejected) {
  // A wave tensor {1, 2^62 + 1, 2, 2} over 4 values: the dims multiply to
  // 2^64 + 4, which wraps to 4 in 64 bits.
  std::vector<unsigned char> body = {'Q', 'G', 'T', '1'};
  const auto put = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    body.insert(body.end(), b, b + n);
  };
  const std::uint64_t dims[] = {4, 1, (std::uint64_t{1} << 62) + 1, 2, 2};
  put(dims, sizeof(dims));  // rank 4, then the four dims
  const Real values[] = {1, 2, 3, 4};
  put(values, sizeof(values));
  write_framed_file(dir_ / "ds.wave.qgt", 1, body);
  const std::vector<Real> vel(64, 0.5);
  const std::size_t vshape[] = {1, 8, 8};
  save_tensor(dir_ / "ds.vel.qgt", vel, vshape);

  try {
    const ScaledDataset ds = load_scaled_dataset(dir_ / "ds");
    ADD_FAILURE() << "loaded nsrc " << ds.nsrc << ", waveform_size "
                  << ds.waveform_size();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ds.wave.qgt"), std::string::npos)
        << e.what();
  }
}

TEST_F(CacheTest, ExistsIsFalseForMissing) {
  EXPECT_FALSE(scaled_dataset_exists(dir_ / "nothing"));
}

TEST(CacheConfig, EnvOverrides) {
  setenv("QUGEO_SAMPLES", "32", 1);
  setenv("QUGEO_TRAIN", "24", 1);
  setenv("QUGEO_SEED", "777", 1);
  const ExperimentDataConfig cfg = experiment_config_from_env();
  EXPECT_EQ(cfg.num_samples, 32u);
  EXPECT_EQ(cfg.train_count, 24u);
  EXPECT_EQ(cfg.seed, 777u);
  unsetenv("QUGEO_SAMPLES");
  unsetenv("QUGEO_TRAIN");
  unsetenv("QUGEO_SEED");
}

TEST(CacheConfig, TrainClampedBelowTotal) {
  setenv("QUGEO_SAMPLES", "20", 1);
  setenv("QUGEO_TRAIN", "50", 1);
  const ExperimentDataConfig cfg = experiment_config_from_env();
  EXPECT_LT(cfg.train_count, cfg.num_samples);
  unsetenv("QUGEO_SAMPLES");
  unsetenv("QUGEO_TRAIN");
}

TEST(CacheConfig, EpochsFromEnv) {
  unsetenv("QUGEO_EPOCHS");
  EXPECT_EQ(epochs_from_env(123), 123u);
  setenv("QUGEO_EPOCHS", "55", 1);
  EXPECT_EQ(epochs_from_env(123), 55u);
  unsetenv("QUGEO_EPOCHS");
}

}  // namespace
}  // namespace qugeo::data
