// High-level forward-modelling drivers reproducing the two acquisition
// scales of the paper:
//   * the OpenFWI full scale — 5 sources x 1000 time steps x 70 receivers
//     over a 70x70 velocity map, 15 Hz Ricker;
//   * the quantum scale used by Q-D-FW — the velocity map downsampled to
//     8x8 and re-modelled with an 8 Hz Ricker into 1 source x 32 time
//     samples x 8 receivers = 256 values (Sec. 3.1.1, Fig. 6). The
//     32-sample axis keeps the recording's Nyquist frequency (16 Hz) above
//     the 8 Hz source (data::ScaleTarget).
//
// Parallelism: a shot is the unit of work. model_shots runs every
// (model, shot) pair of its input as one pool fan-out, each shot's FDTD
// sweep inline on its worker, each gather into its own slot, so the data
// is bitwise the same for any QUGEO_THREADS value and any grouping of
// models into calls. model_shot runs one source on the calling thread, for
// callers that fan shots out themselves; it keeps the geometry of the
// every-source call, so its gather is bitwise that call's shot. Invalid
// models, acquisitions and source indices throw std::invalid_argument on
// the calling thread before any shot runs.
#pragma once

#include <span>
#include <vector>

#include "seismic/fdtd.h"
#include "seismic/survey.h"
#include "seismic/velocity_model.h"
#include "seismic/wavelet.h"

namespace qugeo::seismic {

/// One acquisition description: geometry + wavelet + solver settings.
struct Acquisition {
  std::size_t num_sources = 5;
  std::size_t num_receivers = 70;
  std::size_t num_time_samples = 1000;  ///< samples in the recorded gather
  Real wavelet_freq_hz = 15.0;
  FdtdConfig fdtd;
};

/// The paper's full-resolution OpenFWI acquisition.
[[nodiscard]] Acquisition openfwi_acquisition();

/// The paper's quantum-scale acquisition (256-value gathers, 8 Hz source).
[[nodiscard]] Acquisition quantum_acquisition();

/// Model all shots of an acquisition over `model`. The receivers and
/// sources are spread evenly along the surface (row 0). The simulation
/// step is the largest that divides the 1 s record into a whole number of
/// steps per recorded sample within 0.9x max_stable_dt.
[[nodiscard]] SeismicData model_shots(const VelocityModel& model,
                                      const Acquisition& acq);

/// model_shots over every model, all their shots in one pool fan-out;
/// element i equals model_shots(models[i], acq) bitwise.
[[nodiscard]] std::vector<SeismicData> model_shots(
    std::span<const VelocityModel> models, const Acquisition& acq);

/// One shot, on the calling thread: source `source` of acq over `model`,
/// bitwise shot `source` of model_shots(model, acq). For callers that run
/// shots as iterations of their own fan-out. A source >= acq.num_sources
/// throws std::invalid_argument.
[[nodiscard]] ShotGather model_shot(const VelocityModel& model,
                                    const Acquisition& acq, std::size_t source);

/// Q-D-FW in one call: downsample the velocity map to target_nz x target_nx
/// and re-model at the quantum scale. Internally the coarse map is refined
/// (nearest-neighbour, preserving the blocky layers) onto a finer simulation
/// grid so the FD stencil stays in its accurate regime; receivers record at
/// the coarse-scale positions and traces are decimated to the requested
/// sample count.
[[nodiscard]] SeismicData physics_guided_remodel(const VelocityModel& full_model,
                                                 std::size_t target_nz,
                                                 std::size_t target_nx,
                                                 const Acquisition& acq,
                                                 std::size_t sim_refine = 8);

}  // namespace qugeo::seismic
