#include "core/serialization.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/io.h"

namespace qugeo::core {
namespace {

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

constexpr char kCheckpointMagic[4] = {'Q', 'G', 'C', 'K'};

// ---- little byte helpers over the framed payload ----

void put_bytes(std::vector<unsigned char>& buf, const void* data,
               std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  buf.insert(buf.end(), p, p + bytes);
}

template <typename T>
void put(std::vector<unsigned char>& buf, T value) {
  put_bytes(buf, &value, sizeof(T));
}

/// Bounds-checked reader over a checkpoint payload; overruns mean the
/// CRC-valid frame carries internally inconsistent fields (kMalformed).
class CheckpointReader {
 public:
  CheckpointReader(const std::vector<unsigned char>& bytes, std::string path)
      : bytes_(bytes), path_(std::move(path)) {}

  void read(void* out, std::size_t n) {
    if (n > remaining())  // pos_ <= size always, so this cannot wrap
      throw CheckpointError(
          CheckpointFault::kMalformed,
          "checkpoint " + path_ + ": payload ends mid-field (offset " +
              std::to_string(pos_) + " + " + std::to_string(n) + " > " +
              std::to_string(bytes_.size()) + " bytes)");
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
  T get() {
    T v;
    read(&v, sizeof(T));
    return v;
  }

  /// Read a file-supplied element count and check that `count` records of
  /// `record_bytes` each fit in what is left of the payload, before anyone
  /// allocates for them.
  std::size_t get_count(std::size_t record_bytes, const char* what) {
    const auto count = get<std::uint64_t>();
    if (count > remaining() / record_bytes)
      throw CheckpointError(
          CheckpointFault::kMalformed,
          "checkpoint " + path_ + ": " + what + " count " +
              std::to_string(count) + " overruns the " +
              std::to_string(remaining()) + " bytes left in the payload");
    return static_cast<std::size_t>(count);
  }

  /// Read `n` reals; `n` must come from get_count.
  void read_reals(std::vector<Real>& out, std::size_t n) {
    out.resize(n);
    read(out.data(), n * sizeof(Real));
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::vector<unsigned char>& bytes_;
  std::string path_;
  std::size_t pos_ = 0;
};

[[noreturn]] void rethrow_frame_error(const FrameError& e,
                                      const std::filesystem::path& path) {
  CheckpointFault fault = CheckpointFault::kMalformed;
  switch (e.kind()) {
    case FrameError::Kind::kMissing: fault = CheckpointFault::kMissing; break;
    case FrameError::Kind::kBadMagic: fault = CheckpointFault::kBadMagic; break;
    case FrameError::Kind::kTruncated:
      fault = CheckpointFault::kTruncated;
      break;
    case FrameError::Kind::kCrcMismatch:
      fault = CheckpointFault::kCrcMismatch;
      break;
  }
  throw CheckpointError(fault, "checkpoint " + path.string() + ": " + e.what());
}

}  // namespace

std::uint64_t model_fingerprint(const ModelConfig& config) {
  std::uint64_t h = 0;
  for (Index g : config.group_data_qubits) mix(h, g);
  mix(h, config.batch_log2);
  mix(h, config.ansatz.blocks);
  mix(h, config.ansatz.entangle_every);
  mix(h, static_cast<std::uint64_t>(config.decoder));
  mix(h, config.vel_rows);
  mix(h, config.vel_cols);
  // Keep within double's exact-integer range: the fingerprint rides in the
  // float64 tensor payload.
  return h & ((std::uint64_t{1} << 52) - 1);
}

std::uint64_t train_fingerprint(const TrainConfig& config) {
  std::uint64_t h = 0;
  mix(h, config.epochs);
  mix(h, std::bit_cast<std::uint64_t>(config.initial_lr));
  mix(h, config.shuffle_seed);
  mix(h, config.chunks_per_step);
  // Different shard counts group the gradient fold differently, so a
  // checkpoint resumed under another QUGEO_GRAD_SHARDS would silently
  // break bit-identity with the uninterrupted run.
  mix(h, config.grad_shards);
  return h;
}

void save_model(const std::filesystem::path& path, const QuGeoModel& model) {
  const auto params = model.parameters();
  std::vector<Real> payload;
  payload.reserve(params.size() + 1);
  payload.push_back(static_cast<Real>(model_fingerprint(model.config())));
  payload.insert(payload.end(), params.begin(), params.end());
  const std::size_t shape[] = {payload.size()};
  save_tensor(path, payload, shape);
}

void load_model(const std::filesystem::path& path, QuGeoModel& model) {
  const LoadedTensor t = load_tensor(path);
  if (t.data.empty())
    throw std::runtime_error("load_model: " + path.string() +
                             ": checkpoint holds no data");
  const auto stored = static_cast<std::uint64_t>(t.data[0]);
  const std::uint64_t expected = model_fingerprint(model.config());
  if (stored != expected)
    throw std::runtime_error(
        "load_model: " + path.string() +
        ": architecture fingerprint mismatch (stored " +
        std::to_string(stored) + ", model expects " + std::to_string(expected) +
        ") — the file was saved from a differently configured model");
  if (t.data.size() != model.num_params() + 1)
    throw std::runtime_error(
        "load_model: " + path.string() + ": parameter count mismatch (stored " +
        std::to_string(t.data.size() - 1) + ", model expects " +
        std::to_string(model.num_params()) + ")");
  model.set_parameters(std::span<const Real>(t.data).subspan(1));
}

// ------------------------------------------------- training checkpoints --

const char* checkpoint_fault_name(CheckpointFault fault) noexcept {
  switch (fault) {
    case CheckpointFault::kMissing: return "missing";
    case CheckpointFault::kBadMagic: return "bad-magic";
    case CheckpointFault::kTruncated: return "truncated";
    case CheckpointFault::kCrcMismatch: return "crc-mismatch";
    case CheckpointFault::kBadVersion: return "bad-version";
    case CheckpointFault::kMalformed: return "malformed";
    case CheckpointFault::kFingerprintMismatch: return "fingerprint-mismatch";
    case CheckpointFault::kConfigMismatch: return "config-mismatch";
  }
  return "?";
}

std::filesystem::path checkpoint_slot_path(const std::filesystem::path& stem,
                                           std::size_t slot) {
  return std::filesystem::path(stem.string() + "." + std::to_string(slot));
}

void save_train_checkpoint(const std::filesystem::path& path,
                           const TrainCheckpoint& ck) {
  if (ck.adam_m.size() != ck.params.size() ||
      ck.adam_v.size() != ck.params.size())
    throw std::invalid_argument(
        "save_train_checkpoint: Adam moment sizes must match the parameter "
        "count");
  if (ck.curve.size() != ck.epochs_completed)
    throw std::invalid_argument(
        "save_train_checkpoint: curve holds " +
        std::to_string(ck.curve.size()) + " records for " +
        std::to_string(ck.epochs_completed) + " completed epochs");

  std::vector<unsigned char> body;
  body.reserve(64 + 3 * ck.params.size() * sizeof(Real) +
               3 * ck.curve.size() * sizeof(Real));
  put_bytes(body, kCheckpointMagic, sizeof(kCheckpointMagic));
  put<std::uint32_t>(body, TrainCheckpoint::kVersion);
  put<std::uint64_t>(body, ck.model_fp);
  put<std::uint64_t>(body, ck.train_fp);
  put<std::uint64_t>(body, ck.epochs_completed);
  put<std::uint64_t>(body, ck.adam_t);
  for (const std::uint64_t s : ck.shuffle_rng.s) put<std::uint64_t>(body, s);
  put<std::uint8_t>(body, ck.shuffle_rng.has_cached_normal ? 1 : 0);
  put<Real>(body, ck.shuffle_rng.cached_normal);
  put<std::uint64_t>(body, ck.params.size());
  put_bytes(body, ck.params.data(), ck.params.size() * sizeof(Real));
  put_bytes(body, ck.adam_m.data(), ck.adam_m.size() * sizeof(Real));
  put_bytes(body, ck.adam_v.data(), ck.adam_v.size() * sizeof(Real));
  put<std::uint64_t>(body, ck.curve.size());
  for (const EpochRecord& r : ck.curve) {
    put<Real>(body, r.train_loss);
    put<Real>(body, r.test_ssim);
    put<Real>(body, r.test_mse);
  }
  write_framed_file(path, TrainCheckpoint::kVersion, body);
}

TrainCheckpoint load_train_checkpoint(const std::filesystem::path& path) {
  fault::site("checkpoint.read");
  FramedPayload frame;
  try {
    frame = read_framed_file(path);
  } catch (const FrameError& e) {
    rethrow_frame_error(e, path);
  }

  CheckpointReader r(frame.payload, path.string());
  char magic[4];
  r.read(magic, sizeof(magic));
  if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0)
    throw CheckpointError(CheckpointFault::kBadMagic,
                          "checkpoint " + path.string() +
                              ": framed payload is not a training checkpoint "
                              "(bad inner magic)");
  const auto version = r.get<std::uint32_t>();
  if (version != TrainCheckpoint::kVersion)
    throw CheckpointError(
        CheckpointFault::kBadVersion,
        "checkpoint " + path.string() + ": format version " +
            std::to_string(version) + " is not the supported version " +
            std::to_string(TrainCheckpoint::kVersion));

  TrainCheckpoint ck;
  ck.model_fp = r.get<std::uint64_t>();
  ck.train_fp = r.get<std::uint64_t>();
  ck.epochs_completed = r.get<std::uint64_t>();
  ck.adam_t = r.get<std::uint64_t>();
  for (std::uint64_t& s : ck.shuffle_rng.s) s = r.get<std::uint64_t>();
  ck.shuffle_rng.has_cached_normal = r.get<std::uint8_t>() != 0;
  ck.shuffle_rng.cached_normal = r.get<Real>();
  // params, adam_m and adam_v: three reals per parameter.
  const std::size_t n_params = r.get_count(3 * sizeof(Real), "parameter");
  r.read_reals(ck.params, n_params);
  r.read_reals(ck.adam_m, n_params);
  r.read_reals(ck.adam_v, n_params);
  // One (train_loss, test_ssim, test_mse) record per epoch.
  const std::size_t n_curve = r.get_count(3 * sizeof(Real), "curve record");
  if (n_curve != ck.epochs_completed)
    throw CheckpointError(
        CheckpointFault::kMalformed,
        "checkpoint " + path.string() + ": curve holds " +
            std::to_string(n_curve) + " records for " +
            std::to_string(ck.epochs_completed) + " completed epochs");
  ck.curve.resize(n_curve);
  for (EpochRecord& rec : ck.curve) {
    rec.train_loss = r.get<Real>();
    rec.test_ssim = r.get<Real>();
    rec.test_mse = r.get<Real>();
  }
  return ck;
}

std::optional<TrainCheckpoint> find_resume_checkpoint(
    const std::filesystem::path& stem, std::size_t keep,
    std::uint64_t expected_model_fp, std::uint64_t expected_train_fp) {
  if (keep == 0) keep = 1;
  std::optional<TrainCheckpoint> best;
  for (std::size_t slot = 0; slot < keep; ++slot) {
    const std::filesystem::path path = checkpoint_slot_path(stem, slot);
    if (!std::filesystem::exists(path)) continue;
    try {
      TrainCheckpoint ck = load_train_checkpoint(path);
      if (ck.model_fp != expected_model_fp)
        throw CheckpointError(
            CheckpointFault::kFingerprintMismatch,
            "checkpoint " + path.string() +
                ": architecture fingerprint mismatch (stored " +
                std::to_string(ck.model_fp) + ", model expects " +
                std::to_string(expected_model_fp) + ")");
      if (ck.train_fp != expected_train_fp)
        throw CheckpointError(
            CheckpointFault::kConfigMismatch,
            "checkpoint " + path.string() +
                ": training-config fingerprint mismatch (stored " +
                std::to_string(ck.train_fp) + ", run expects " +
                std::to_string(expected_train_fp) +
                ") — epochs/lr/seed/accumulation differ");
      if (!best || ck.epochs_completed > best->epochs_completed)
        best = std::move(ck);
    } catch (const CheckpointError& e) {
      fault::report_degradation(
          "checkpoint", std::string("skipping slot ") + path.string() + " [" +
                            checkpoint_fault_name(e.fault()) + "]: " + e.what());
    } catch (const TransientError& e) {
      // An injected/transient read fault degrades like a bad slot: resume
      // continues from the next-best candidate instead of dying.
      fault::report_degradation("checkpoint",
                                std::string("skipping slot ") + path.string() +
                                    " [transient]: " + e.what());
    }
  }
  return best;
}

}  // namespace qugeo::core
