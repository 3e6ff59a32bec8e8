// Strict QUGEO_* environment parsing: every malformed value must throw an
// error naming the variable instead of being silently mangled (the old
// lenient parsers turned QUGEO_SAMPLES=abc into 0 and QUGEO_TRAIN=12x
// into 12), and the unsigned contract rejects negative values instead of
// wrapping them (QUGEO_SEED=-1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/env.h"
#include "common/parallel.h"
#include "data/cache.h"
#include "qsim/backend.h"

namespace qugeo {
namespace {

/// Sets an env var for the scope and restores the previous value on exit,
/// so tests stay safe inside CI legs that pin QUGEO_* globally.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_old_)
      ::setenv(name_.c_str(), old_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

/// The thrown message must name the variable, or the user cannot tell
/// which of a dozen knobs was mistyped.
template <typename Fn>
void expect_rejects_naming(const char* name, Fn&& fn) {
  try {
    fn();
    FAIL() << name << ": malformed value was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << "error message does not name " << name << ": " << e.what();
  }
}

TEST(Env, UnsetReturnsFallback) {
  EnvGuard guard("QUGEO_ENV_TEST", nullptr);
  EXPECT_EQ(env::parse_env_size_t("QUGEO_ENV_TEST", 7u), 7u);
  EXPECT_EQ(env::parse_env_positive("QUGEO_ENV_TEST", 3u), 3u);
  EXPECT_EQ(env::parse_env_u64("QUGEO_ENV_TEST", 42u), 42u);
  EXPECT_EQ(env::parse_env_probability("QUGEO_ENV_TEST", 0.25), 0.25);
}

TEST(Env, ParsesWholeWellFormedValues) {
  {
    EnvGuard guard("QUGEO_ENV_TEST", "0");
    EXPECT_EQ(env::parse_env_size_t("QUGEO_ENV_TEST", 7u), 0u);
  }
  {
    EnvGuard guard("QUGEO_ENV_TEST", "17");
    EXPECT_EQ(env::parse_env_positive("QUGEO_ENV_TEST", 3u), 17u);
  }
  {
    EnvGuard guard("QUGEO_ENV_TEST", "18446744073709551615");  // 2^64 - 1
    EXPECT_EQ(env::parse_env_u64("QUGEO_ENV_TEST", 0u), ~std::uint64_t{0});
  }
  {
    EnvGuard guard("QUGEO_ENV_TEST", "0.75");
    EXPECT_EQ(env::parse_env_probability("QUGEO_ENV_TEST", 0.0), 0.75);
  }
}

TEST(Env, RejectsMalformedIntegers) {
  for (const char* bad : {"abc", "12x", "", " 5", "1.5", "0x10"}) {
    EnvGuard guard("QUGEO_ENV_TEST", bad);
    expect_rejects_naming("QUGEO_ENV_TEST", [] {
      (void)env::parse_env_size_t("QUGEO_ENV_TEST", 1u);
    });
  }
}

TEST(Env, RejectsNegativeInsteadOfWrapping) {
  // strtoull alone would accept "-1" and wrap it to 2^64 - 1.
  EnvGuard guard("QUGEO_ENV_TEST", "-1");
  expect_rejects_naming("QUGEO_ENV_TEST", [] {
    (void)env::parse_env_size_t("QUGEO_ENV_TEST", 1u);
  });
  expect_rejects_naming("QUGEO_ENV_TEST", [] {
    (void)env::parse_env_u64("QUGEO_ENV_TEST", 1u);
  });
}

TEST(Env, RejectsOutOfRangeIntegers) {
  EnvGuard guard("QUGEO_ENV_TEST", "99999999999999999999999999");
  expect_rejects_naming("QUGEO_ENV_TEST", [] {
    (void)env::parse_env_u64("QUGEO_ENV_TEST", 1u);
  });
}

TEST(Env, PositiveRejectsZero) {
  EnvGuard guard("QUGEO_ENV_TEST", "0");
  expect_rejects_naming("QUGEO_ENV_TEST", [] {
    (void)env::parse_env_positive("QUGEO_ENV_TEST", 1u);
  });
}

TEST(Env, RejectsMalformedProbabilities) {
  for (const char* bad : {"abc", "", "0.5x", "1.5", "-0.1", "nan", "NaN"}) {
    EnvGuard guard("QUGEO_ENV_TEST", bad);
    expect_rejects_naming("QUGEO_ENV_TEST", [] {
      (void)env::parse_env_probability("QUGEO_ENV_TEST", 0.0);
    });
  }
}

// ------------------------------------------------- knob-by-knob coverage --

TEST(Env, DataKnobsRejectMalformedValues) {
  {
    EnvGuard guard("QUGEO_SAMPLES", "abc");
    expect_rejects_naming("QUGEO_SAMPLES",
                          [] { (void)data::experiment_config_from_env(); });
  }
  {
    // The old lenient parser silently truncated this to 12.
    EnvGuard guard("QUGEO_TRAIN", "12x");
    expect_rejects_naming("QUGEO_TRAIN",
                          [] { (void)data::experiment_config_from_env(); });
  }
  {
    EnvGuard guard("QUGEO_CNN_SAMPLES", "0");
    expect_rejects_naming("QUGEO_CNN_SAMPLES",
                          [] { (void)data::experiment_config_from_env(); });
  }
  {
    EnvGuard guard("QUGEO_EPOCHS", "many");
    expect_rejects_naming("QUGEO_EPOCHS",
                          [] { (void)data::epochs_from_env(10); });
  }
}

TEST(Env, SeedIsUnsignedByContract) {
  {
    EnvGuard guard("QUGEO_SEED", "-1");
    expect_rejects_naming("QUGEO_SEED",
                          [] { (void)data::experiment_config_from_env(); });
  }
  {  // the full unsigned range stays representable
    EnvGuard guard("QUGEO_SEED", "18446744073709551615");
    EXPECT_EQ(data::experiment_config_from_env().seed, ~std::uint64_t{0});
  }
}

TEST(Env, BackendKnobsRejectMalformedValues) {
  {
    EnvGuard guard("QUGEO_TRAJECTORIES", "0");
    expect_rejects_naming("QUGEO_TRAJECTORIES", [] {
      (void)qsim::apply_env_overrides(qsim::ExecutionConfig{});
    });
  }
  {
    EnvGuard guard("QUGEO_SHOTS", "-5");
    expect_rejects_naming("QUGEO_SHOTS", [] {
      (void)qsim::apply_env_overrides(qsim::ExecutionConfig{});
    });
  }
  {
    EnvGuard guard("QUGEO_NOISE_P", "1.5");
    expect_rejects_naming("QUGEO_NOISE_P", [] {
      (void)qsim::apply_env_overrides(qsim::ExecutionConfig{});
    });
  }
  {
    EnvGuard guard("QUGEO_READOUT_P", "lots");
    expect_rejects_naming("QUGEO_READOUT_P", [] {
      (void)qsim::apply_env_overrides(qsim::ExecutionConfig{});
    });
  }
  // NaN fails every comparison, so a `p < 0 || p > 1` check lets it through
  // and the run silently goes noiseless.
  for (const char* name : {"QUGEO_NOISE_P", "QUGEO_READOUT_P"}) {
    for (const char* nan : {"nan", "NaN"}) {
      EnvGuard guard(name, nan);
      expect_rejects_naming(name, [] {
        (void)qsim::apply_env_overrides(qsim::ExecutionConfig{});
      });
    }
  }
  {
    // The process-wide SIMD reader treats unknown text as "auto"; the
    // execution-config overrides must still reject it.
    EnvGuard guard("QUGEO_SIMD", "sideways");
    expect_rejects_naming("QUGEO_SIMD", [] {
      (void)qsim::apply_env_overrides(qsim::ExecutionConfig{});
    });
  }
}

TEST(Env, ThreadsKnobRejectsMalformedValues) {
  // set_num_threads(0) re-reads QUGEO_THREADS; the throw fires before the
  // pool is touched, so the existing workers stay intact.
  {
    EnvGuard guard("QUGEO_THREADS", "fast");
    expect_rejects_naming("QUGEO_THREADS", [] { set_num_threads(0); });
  }
  {
    EnvGuard guard("QUGEO_THREADS", "0");
    expect_rejects_naming("QUGEO_THREADS", [] { set_num_threads(0); });
  }
  {
    EnvGuard guard("QUGEO_THREADS", "2000");  // above the [1, 1024] cap
    expect_rejects_naming("QUGEO_THREADS", [] { set_num_threads(0); });
  }
}

}  // namespace
}  // namespace qugeo
