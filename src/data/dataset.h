// Dataset containers for the FWI learning task.
//
// A raw sample pairs a 70x70 velocity map with its 5x1000x70 shot gathers
// (the synthetic stand-in for OpenFWI FlatVel-A; see the substitution table
// in docs/ARCHITECTURE.md). A scaled sample is what actually reaches the
// quantum circuit: a 256-value waveform plus an 8x8 velocity map normalized
// to [0, 1].
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "seismic/forward_modeling.h"
#include "seismic/survey.h"
#include "seismic/velocity_model.h"

namespace qugeo::data {

/// Global velocity normalization constants (m/s), fixed by the FlatVel-A
/// specification so train/test use identical scaling.
inline constexpr Real kVelocityMin = 1500.0;
inline constexpr Real kVelocityMax = 4500.0;

[[nodiscard]] inline Real normalize_velocity(Real v) {
  return (v - kVelocityMin) / (kVelocityMax - kVelocityMin);
}
[[nodiscard]] inline Real denormalize_velocity(Real u) {
  return kVelocityMin + u * (kVelocityMax - kVelocityMin);
}

/// A velocity map and the shots modelled over it: every source of the
/// dataset's acquisition, or only a listed subset of them (the corpus
/// build keeps the shots its scalers read), in which case seismic.nsrc()
/// is the list's length, not acquisition.num_sources.
struct RawSample {
  seismic::VelocityModel velocity;
  seismic::SeismicData seismic;
};

struct RawDataset {
  std::vector<RawSample> samples;
  seismic::FlatVelConfig velocity_config;
  seismic::Acquisition acquisition;

  [[nodiscard]] std::size_t size() const noexcept { return samples.size(); }
};

/// Generate `count` raw samples: draw `count` FlatVel models, then run the
/// acquisition over all of them in one shot fan-out
/// (seismic::model_shots). Deterministic given the rng seed, and the same
/// for any thread count.
[[nodiscard]] RawDataset generate_raw_dataset(std::size_t count,
                                              const seismic::FlatVelConfig& vel_cfg,
                                              const seismic::Acquisition& acq,
                                              Rng& rng);

/// One quantum-scale training pair.
struct ScaledSample {
  std::vector<Real> waveform;  ///< nsrc*nt*nrec values (source-major)
  std::vector<Real> velocity;  ///< vel_rows*vel_cols values in [0, 1]
};

struct ScaledDataset {
  std::string scaler_name;
  std::size_t nsrc = 1, nt = 32, nrec = 8;
  std::size_t vel_rows = 8, vel_cols = 8;
  std::vector<ScaledSample> samples;

  [[nodiscard]] std::size_t size() const noexcept { return samples.size(); }
  [[nodiscard]] std::size_t waveform_size() const noexcept {
    return nsrc * nt * nrec;
  }
  [[nodiscard]] std::size_t velocity_size() const noexcept {
    return vel_rows * vel_cols;
  }
};

/// Index-based train/test split (first `train_count` samples train, the
/// rest test — the generation order is already random).
struct SplitView {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

[[nodiscard]] SplitView split_dataset(std::size_t total, std::size_t train_count);

}  // namespace qugeo::data
