#include "common/io.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/fault.h"

namespace qugeo {
namespace {

constexpr char kTensorMagic[4] = {'Q', 'G', 'T', '1'};
constexpr char kFrameMagic[4] = {'Q', 'G', 'F', '1'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_or_throw(const std::filesystem::path& path, const char* mode) {
  FilePtr f(std::fopen(path.string().c_str(), mode));
  if (!f) throw std::runtime_error("io: cannot open " + path.string());
  return f;
}

void write_or_throw(std::FILE* f, const void* buf, std::size_t bytes) {
  if (std::fwrite(buf, 1, bytes, f) != bytes)
    throw std::runtime_error("io: short write");
}

/// CRC-32 lookup table for the reflected IEEE polynomial, built once.
const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// Bounds-checked little reader over an in-memory byte buffer.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  void read(void* out, std::size_t bytes) {
    if (pos_ + bytes > size_)
      throw std::runtime_error("io: buffer truncated");
    std::memcpy(out, data_ + pos_, bytes);
    pos_ += bytes;
  }

  template <typename T>
  T read_as() {
    T v;
    read(&v, sizeof(T));
    return v;
  }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void append_bytes(std::vector<unsigned char>& buf, const void* data,
                  std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  buf.insert(buf.end(), p, p + bytes);
}

/// Whole-file slurp (binary). Throws FrameError::kMissing when the file
/// cannot be opened.
std::vector<unsigned char> read_all_bytes(const std::filesystem::path& path) {
  FilePtr f(std::fopen(path.string().c_str(), "rb"));
  if (!f)
    throw FrameError(FrameError::Kind::kMissing,
                     "io: cannot open " + path.string());
  std::vector<unsigned char> bytes;
  unsigned char chunk[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(chunk, 1, sizeof(chunk), f.get());
    bytes.insert(bytes.end(), chunk, chunk + n);
    if (n < sizeof(chunk)) break;
  }
  return bytes;
}

/// Product of `dims`, or nullopt when it overflows size_t.
std::optional<std::size_t> element_count(std::span<const std::size_t> dims) {
  std::size_t count = 1;
  for (std::size_t d : dims) {
    if (d != 0 && count > SIZE_MAX / d) return std::nullopt;
    count *= d;
  }
  return count;
}

LoadedTensor parse_tensor_body(const unsigned char* data, std::size_t size,
                               const std::filesystem::path& path) {
  ByteReader r(data, size);
  char magic[4];
  r.read(magic, sizeof(magic));
  if (std::memcmp(magic, kTensorMagic, sizeof(magic)) != 0)
    throw std::runtime_error("load_tensor: bad magic in " + path.string());
  const auto rank = r.read_as<std::uint64_t>();
  if (rank > 16) throw std::runtime_error("load_tensor: implausible rank");
  LoadedTensor t;
  t.shape.resize(rank);
  for (auto& d : t.shape)
    d = static_cast<std::size_t>(r.read_as<std::uint64_t>());
  // The dims come from the file: the payload must hold exactly their
  // product in values, checked before anything is allocated for it.
  const std::optional<std::size_t> count = element_count(t.shape);
  const std::size_t left = size - r.position();
  if (!count || left % sizeof(Real) != 0 || *count != left / sizeof(Real))
    throw std::runtime_error("load_tensor: " + path.string() +
                             " declares a shape its " + std::to_string(left) +
                             " payload bytes do not hold");
  t.data.resize(*count);
  r.read(t.data.data(), left);
  return t;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes) {
  const auto& table = crc32_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i)
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void write_framed_file(const std::filesystem::path& path,
                       std::uint32_t version,
                       std::span<const unsigned char> payload) {
  fault::site("io.atomic_write");
  const std::filesystem::path tmp =
      std::filesystem::path(path.string() + ".tmp");
  {
    const FilePtr f = open_or_throw(tmp, "wb");
    const std::uint64_t payload_bytes = payload.size();
    const std::uint32_t crc = crc32(payload.data(), payload.size());
    write_or_throw(f.get(), kFrameMagic, sizeof(kFrameMagic));
    write_or_throw(f.get(), &version, sizeof(version));
    write_or_throw(f.get(), &payload_bytes, sizeof(payload_bytes));
    write_or_throw(f.get(), &crc, sizeof(crc));
    if (!payload.empty())
      write_or_throw(f.get(), payload.data(), payload.size());
    if (std::fflush(f.get()) != 0)
      throw std::runtime_error("io: flush failed for " + tmp.string());
#ifndef _WIN32
    // Make the bytes durable BEFORE the rename publishes them: rename is
    // atomic in the namespace, but without the fsync a crash could leave
    // the new name pointing at unwritten data.
    if (::fsync(::fileno(f.get())) != 0)
      throw std::runtime_error("io: fsync failed for " + tmp.string());
#endif
  }
  // Simulated crash window between durability and publication: the temp
  // file survives (as after a real crash), `path` keeps its old contents.
  fault::site("io.rename");
  std::filesystem::rename(tmp, path);
}

FramedPayload read_framed_file(const std::filesystem::path& path) {
  const std::vector<unsigned char> bytes = read_all_bytes(path);
  constexpr std::size_t kHeaderBytes =
      sizeof(kFrameMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t) +
      sizeof(std::uint32_t);
  if (bytes.size() < sizeof(kFrameMagic) ||
      std::memcmp(bytes.data(), kFrameMagic, sizeof(kFrameMagic)) != 0)
    throw FrameError(FrameError::Kind::kBadMagic,
                     "io: " + path.string() + " is not a framed (QGF1) file");
  if (bytes.size() < kHeaderBytes)
    throw FrameError(FrameError::Kind::kTruncated,
                     "io: " + path.string() + " is truncated inside the frame "
                     "header (" + std::to_string(bytes.size()) + " bytes)");
  FramedPayload out;
  std::uint64_t payload_bytes = 0;
  std::uint32_t stored_crc = 0;
  std::memcpy(&out.version, bytes.data() + 4, sizeof(out.version));
  std::memcpy(&payload_bytes, bytes.data() + 8, sizeof(payload_bytes));
  std::memcpy(&stored_crc, bytes.data() + 16, sizeof(stored_crc));
  // Compare against the bytes left after the header: a declared length
  // near 2^64 would wrap `kHeaderBytes + payload_bytes` and pass.
  if (payload_bytes > bytes.size() - kHeaderBytes)
    throw FrameError(
        FrameError::Kind::kTruncated,
        "io: " + path.string() + " is truncated: header declares " +
            std::to_string(payload_bytes) + " payload bytes, file holds " +
            std::to_string(bytes.size() - kHeaderBytes));
  out.payload.assign(bytes.begin() + kHeaderBytes,
                     bytes.begin() + static_cast<std::ptrdiff_t>(
                                         kHeaderBytes + payload_bytes));
  const std::uint32_t actual_crc = crc32(out.payload.data(), out.payload.size());
  if (actual_crc != stored_crc)
    throw FrameError(FrameError::Kind::kCrcMismatch,
                     "io: " + path.string() + " payload CRC mismatch (stored " +
                         std::to_string(stored_crc) + ", computed " +
                         std::to_string(actual_crc) + ")");
  return out;
}

void save_tensor(const std::filesystem::path& path,
                 std::span<const Real> data,
                 std::span<const std::size_t> shape) {
  const std::optional<std::size_t> count = element_count(shape);
  if (!count || *count != data.size())
    throw std::invalid_argument("save_tensor: shape does not match data size");

  std::vector<unsigned char> body;
  body.reserve(sizeof(kTensorMagic) + sizeof(std::uint64_t) * (1 + shape.size()) +
               data.size() * sizeof(Real));
  append_bytes(body, kTensorMagic, sizeof(kTensorMagic));
  const std::uint64_t rank = shape.size();
  append_bytes(body, &rank, sizeof(rank));
  for (std::size_t d : shape) {
    const std::uint64_t d64 = d;
    append_bytes(body, &d64, sizeof(d64));
  }
  append_bytes(body, data.data(), data.size() * sizeof(Real));
  write_framed_file(path, 1, body);
}

LoadedTensor load_tensor(const std::filesystem::path& path) {
  const FramedPayload frame = read_framed_file(path);
  return parse_tensor_body(frame.payload.data(), frame.payload.size(), path);
}

CsvWriter::CsvWriter(const std::filesystem::path& path,
                     std::vector<std::string> columns)
    : columns_(columns.size()) {
  file_ = std::fopen(path.string().c_str(), "w");
  if (!file_) throw std::runtime_error("CsvWriter: cannot open " + path.string());
  for (std::size_t i = 0; i < columns.size(); ++i)
    std::fprintf(file_, "%s%s", columns[i].c_str(),
                 i + 1 == columns.size() ? "\n" : ",");
}

CsvWriter::~CsvWriter() {
  if (file_) std::fclose(file_);
}

void CsvWriter::append(std::span<const Real> row) {
  if (row.size() != columns_)
    throw std::invalid_argument("CsvWriter: row width mismatch");
  for (std::size_t i = 0; i < row.size(); ++i)
    std::fprintf(file_, "%.10g%s", row[i], i + 1 == row.size() ? "\n" : ",");
}

}  // namespace qugeo
