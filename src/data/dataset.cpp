#include "data/dataset.h"

#include <stdexcept>
#include <utility>

namespace qugeo::data {

RawDataset generate_raw_dataset(std::size_t count,
                                const seismic::FlatVelConfig& vel_cfg,
                                const seismic::Acquisition& acq, Rng& rng) {
  // Every map is drawn before any shot runs; model_shots draws nothing, so
  // the rng advances exactly as a draw-then-model loop would.
  std::vector<seismic::VelocityModel> models;
  models.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    models.push_back(seismic::generate_flatvel(vel_cfg, rng));
  std::vector<seismic::SeismicData> shots = seismic::model_shots(models, acq);

  RawDataset ds;
  ds.velocity_config = vel_cfg;
  ds.acquisition = acq;
  ds.samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    ds.samples.push_back({std::move(models[i]), std::move(shots[i])});
  return ds;
}

SplitView split_dataset(std::size_t total, std::size_t train_count) {
  if (train_count > total)
    throw std::invalid_argument("split_dataset: train_count > total");
  SplitView split;
  split.train.reserve(train_count);
  split.test.reserve(total - train_count);
  for (std::size_t i = 0; i < total; ++i)
    (i < train_count ? split.train : split.test).push_back(i);
  return split;
}

}  // namespace qugeo::data
