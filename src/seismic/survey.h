// Acquisition geometry: source positions, receiver arrays, and the recorded
// shot-gather container (the "seismic data" of Figure 1b).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"

namespace qugeo::seismic {

/// Grid-indexed point position (iz = depth row, ix = horizontal column).
struct GridPos {
  std::size_t iz = 0;
  std::size_t ix = 0;
};

/// A line of receivers at fixed depth.
struct ReceiverLine {
  std::size_t iz = 0;
  std::vector<std::size_t> ix;

  [[nodiscard]] std::size_t count() const noexcept { return ix.size(); }
};

/// Evenly spread `count` receivers across [0, nx) at depth row iz.
[[nodiscard]] ReceiverLine make_receiver_line(std::size_t nx, std::size_t count,
                                              std::size_t iz = 0);

/// Evenly spread `count` surface sources across [0, nx).
[[nodiscard]] std::vector<GridPos> make_source_line(std::size_t nx,
                                                    std::size_t count,
                                                    std::size_t iz = 0);

/// Pressure traces for one shot: nt time samples x nrec receivers,
/// row-major over (t, receiver).
class ShotGather {
 public:
  ShotGather() = default;
  ShotGather(std::size_t nt, std::size_t nrec);

  [[nodiscard]] std::size_t nt() const noexcept { return nt_; }
  [[nodiscard]] std::size_t nrec() const noexcept { return nrec_; }
  [[nodiscard]] std::span<const Real> data() const noexcept { return data_; }
  [[nodiscard]] std::span<Real> data_mut() noexcept { return data_; }

  [[nodiscard]] Real at(std::size_t t, std::size_t r) const {
    return data_[t * nrec_ + r];
  }
  Real& at(std::size_t t, std::size_t r) { return data_[t * nrec_ + r]; }

 private:
  std::size_t nt_ = 0, nrec_ = 0;
  std::vector<Real> data_;
};

/// Multi-shot seismic volume: nsrc x nt x nrec, source-major (so grouping
/// per source — as the ST-Encoder requires — is a contiguous slice).
class SeismicData {
 public:
  SeismicData() = default;
  SeismicData(std::size_t nsrc, std::size_t nt, std::size_t nrec);

  [[nodiscard]] std::size_t nsrc() const noexcept { return nsrc_; }
  [[nodiscard]] std::size_t nt() const noexcept { return nt_; }
  [[nodiscard]] std::size_t nrec() const noexcept { return nrec_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::span<const Real> data() const noexcept { return data_; }
  [[nodiscard]] std::span<Real> data_mut() noexcept { return data_; }

  [[nodiscard]] Real at(std::size_t s, std::size_t t, std::size_t r) const {
    return data_[(s * nt_ + t) * nrec_ + r];
  }
  Real& at(std::size_t s, std::size_t t, std::size_t r) {
    return data_[(s * nt_ + t) * nrec_ + r];
  }

  /// Copy one shot in. Throws std::out_of_range for s >= nsrc() and
  /// std::invalid_argument for a gather of another shape.
  void set_shot(std::size_t s, const ShotGather& shot);

  /// Contiguous view of one shot's samples.
  [[nodiscard]] std::span<const Real> shot_span(std::size_t s) const;

 private:
  std::size_t nsrc_ = 0, nt_ = 0, nrec_ = 0;
  std::vector<Real> data_;
};

}  // namespace qugeo::seismic
