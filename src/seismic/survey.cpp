#include "seismic/survey.h"

#include <stdexcept>

namespace qugeo::seismic {

ReceiverLine make_receiver_line(std::size_t nx, std::size_t count,
                                std::size_t iz) {
  if (count == 0 || count > nx)
    throw std::invalid_argument("make_receiver_line: bad receiver count");
  ReceiverLine line;
  line.iz = iz;
  line.ix.resize(count);
  for (std::size_t i = 0; i < count; ++i)
    line.ix[i] = (count == 1) ? nx / 2 : i * (nx - 1) / (count - 1);
  return line;
}

std::vector<GridPos> make_source_line(std::size_t nx, std::size_t count,
                                      std::size_t iz) {
  if (count == 0 || count > nx)
    throw std::invalid_argument("make_source_line: bad source count");
  std::vector<GridPos> sources(count);
  for (std::size_t i = 0; i < count; ++i)
    sources[i] = {iz, (count == 1) ? nx / 2 : i * (nx - 1) / (count - 1)};
  return sources;
}

ShotGather::ShotGather(std::size_t nt, std::size_t nrec)
    : nt_(nt), nrec_(nrec), data_(nt * nrec, Real(0)) {}

SeismicData::SeismicData(std::size_t nsrc, std::size_t nt, std::size_t nrec)
    : nsrc_(nsrc), nt_(nt), nrec_(nrec), data_(nsrc * nt * nrec, Real(0)) {}

void SeismicData::set_shot(std::size_t s, const ShotGather& shot) {
  if (s >= nsrc_) throw std::out_of_range("SeismicData::set_shot");
  if (shot.nt() != nt_ || shot.nrec() != nrec_)
    throw std::invalid_argument("SeismicData::set_shot: shape mismatch");
  std::copy(shot.data().begin(), shot.data().end(),
            data_.begin() + static_cast<std::ptrdiff_t>(s * nt_ * nrec_));
}

std::span<const Real> SeismicData::shot_span(std::size_t s) const {
  if (s >= nsrc_) throw std::out_of_range("SeismicData::shot_span");
  return std::span<const Real>(data_).subspan(s * nt_ * nrec_, nt_ * nrec_);
}

}  // namespace qugeo::seismic
