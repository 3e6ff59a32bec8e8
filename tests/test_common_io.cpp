// Tensor/CSV serialization round trips and failure modes, plus the
// CRC-guarded framed container (atomic writes, corruption taxonomy,
// unframed files rejected).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/io.h"

namespace qugeo {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "qugeo_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, TensorRoundTrip) {
  const std::vector<Real> data = {1.5, -2.25, 3.75, 0.0, 9.0, -1.0};
  const std::vector<std::size_t> shape = {2, 3};
  save_tensor(dir_ / "t.qgt", data, shape);
  const LoadedTensor t = load_tensor(dir_ / "t.qgt");
  EXPECT_EQ(t.shape, shape);
  EXPECT_EQ(t.data, data);
}

TEST_F(IoTest, ScalarTensor) {
  const std::vector<Real> data = {42.0};
  const std::vector<std::size_t> shape = {};
  save_tensor(dir_ / "s.qgt", data, shape);
  const LoadedTensor t = load_tensor(dir_ / "s.qgt");
  EXPECT_TRUE(t.shape.empty());
  ASSERT_EQ(t.data.size(), 1u);
  EXPECT_EQ(t.data[0], 42.0);
}

TEST_F(IoTest, ShapeMismatchRejected) {
  const std::vector<Real> data = {1, 2, 3};
  const std::vector<std::size_t> shape = {2, 2};
  EXPECT_THROW(save_tensor(dir_ / "bad.qgt", data, shape), std::invalid_argument);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_tensor(dir_ / "absent.qgt"), std::runtime_error);
}

TEST_F(IoTest, CorruptMagicRejected) {
  std::ofstream(dir_ / "junk.qgt") << "not a tensor";
  {
    // A headerless tensor body (magic, u64 rank, u64 dims, float64
    // payload) with no frame around it, so no CRC guards it.
    std::ofstream out(dir_ / "headerless.qgt", std::ios::binary);
    out.write("QGT1", 4);
    const std::uint64_t rank = 1, dim = 1;
    const Real value = 4.5;
    out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  for (const char* name : {"junk.qgt", "headerless.qgt"}) {
    try {
      (void)load_tensor(dir_ / name);
      ADD_FAILURE() << name << " loaded";
    } catch (const FrameError& e) {
      EXPECT_EQ(e.kind(), FrameError::Kind::kBadMagic) << name;
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(IoTest, CsvWriterProducesHeaderAndRows) {
  {
    CsvWriter w(dir_ / "c.csv", {"epoch", "loss"});
    const Real row1[] = {1.0, 0.5};
    const Real row2[] = {2.0, 0.25};
    w.append(row1);
    w.append(row2);
  }
  std::ifstream in(dir_ / "c.csv");
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "epoch,loss");
  std::getline(in, line);
  EXPECT_EQ(line, "1,0.5");
  std::getline(in, line);
  EXPECT_EQ(line, "2,0.25");
}

TEST_F(IoTest, CsvRowWidthChecked) {
  CsvWriter w(dir_ / "c2.csv", {"a", "b", "c"});
  const Real row[] = {1.0, 2.0};
  EXPECT_THROW(w.append(row), std::invalid_argument);
}

// ------------------------------------------------------ framed container --

TEST_F(IoTest, Crc32MatchesKnownVector) {
  // The standard IEEE check value: crc32("123456789") == 0xCBF43926.
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(data, 0), 0u);
}

TEST_F(IoTest, FramedRoundTripKeepsVersionAndPayload) {
  const std::vector<unsigned char> payload = {0x01, 0x02, 0xff, 0x00, 0x7f};
  write_framed_file(dir_ / "f.bin", 3, payload);
  const FramedPayload back = read_framed_file(dir_ / "f.bin");
  EXPECT_EQ(back.version, 3u);
  EXPECT_EQ(back.payload, payload);
  // The temp file from the atomic write is cleaned up by the rename.
  EXPECT_FALSE(std::filesystem::exists(dir_ / "f.bin.tmp"));
}

TEST_F(IoTest, FramedEmptyPayloadAllowed) {
  write_framed_file(dir_ / "e.bin", 1, {});
  EXPECT_TRUE(read_framed_file(dir_ / "e.bin").payload.empty());
}

TEST_F(IoTest, FramedFailureKindsAreDistinct) {
  try {
    (void)read_framed_file(dir_ / "absent.bin");
    FAIL();
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kMissing);
    EXPECT_NE(std::string(e.what()).find("absent.bin"), std::string::npos);
  }

  std::ofstream(dir_ / "junk.bin") << "XXXXnot-a-frame-but-long-enough";
  try {
    (void)read_framed_file(dir_ / "junk.bin");
    FAIL();
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kBadMagic);
  }

  const std::vector<unsigned char> payload(64, 0xab);
  write_framed_file(dir_ / "torn.bin", 1, payload);
  std::filesystem::resize_file(dir_ / "torn.bin",
                               std::filesystem::file_size(dir_ / "torn.bin") - 5);
  try {
    (void)read_framed_file(dir_ / "torn.bin");
    FAIL();
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kTruncated);
  }

  // A declared payload length near 2^64 must not wrap the header-plus-
  // payload bound: 2^64 - 1 and 2^64 - 19 would both pass a wrapped sum.
  for (const std::uint64_t declared :
       {~std::uint64_t{0}, ~std::uint64_t{0} - 18}) {
    write_framed_file(dir_ / "wrap.bin", 1, std::vector<unsigned char>(12, 0));
    {
      std::fstream f(dir_ / "wrap.bin",
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(8);  // the payload-length field
      f.write(reinterpret_cast<const char*>(&declared), sizeof(declared));
    }
    ASSERT_EQ(std::filesystem::file_size(dir_ / "wrap.bin"), 32u);
    try {
      (void)read_framed_file(dir_ / "wrap.bin");
      FAIL() << "declared length " << declared;
    } catch (const FrameError& e) {
      EXPECT_EQ(e.kind(), FrameError::Kind::kTruncated) << e.what();
    }
  }

  write_framed_file(dir_ / "flip.bin", 1, payload);
  {
    std::fstream f(dir_ / "flip.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);  // inside the payload, past the 20-byte header
    const char b = '\x5a';
    f.write(&b, 1);
  }
  try {
    (void)read_framed_file(dir_ / "flip.bin");
    FAIL();
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kCrcMismatch);
  }
}

TEST_F(IoTest, FramedWriteIsAtomicUnderInjectedRenameFault) {
  const std::vector<unsigned char> first = {1, 2, 3};
  const std::vector<unsigned char> second = {9, 9, 9, 9};
  write_framed_file(dir_ / "a.bin", 1, first);
  {
    fault::FaultScope scope("io.rename", 1);
    EXPECT_THROW(write_framed_file(dir_ / "a.bin", 2, second), TransientError);
  }
  // The destination still holds the complete previous frame.
  const FramedPayload back = read_framed_file(dir_ / "a.bin");
  EXPECT_EQ(back.version, 1u);
  EXPECT_EQ(back.payload, first);
}

TEST_F(IoTest, InjectedWriteFaultLeavesNoDestination) {
  fault::FaultScope scope("io.atomic_write", 1);
  const std::vector<unsigned char> payload = {1, 2};
  EXPECT_THROW(write_framed_file(dir_ / "never.bin", 1, payload),
               TransientError);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "never.bin"));
}

/// A framed tensor body (magic, u64 rank, u64 dims, float64 payload)
/// declaring `dims` over `values`, under a valid frame and CRC.
void write_tensor_body(const std::filesystem::path& path,
                       const std::vector<std::uint64_t>& dims,
                       const std::vector<Real>& values) {
  std::vector<unsigned char> body = {'Q', 'G', 'T', '1'};
  const auto put = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    body.insert(body.end(), b, b + n);
  };
  const std::uint64_t rank = dims.size();
  put(&rank, sizeof(rank));
  put(dims.data(), dims.size() * sizeof(std::uint64_t));
  put(values.data(), values.size() * sizeof(Real));
  write_framed_file(path, 1, body);
}

/// load_tensor must throw std::runtime_error naming the path, never
/// std::bad_alloc or a tensor whose shape disagrees with its data.
void expect_rejected(const std::filesystem::path& path) {
  try {
    const LoadedTensor t = load_tensor(path);
    ADD_FAILURE() << path << " loaded " << t.data.size() << " values";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, TensorDeclaringMoreValuesThanItHoldsIsRejected) {
  // 2^40 values (8 TB) declared, none present: no allocation is attempted.
  write_tensor_body(dir_ / "huge.qgt", {std::uint64_t{1} << 40}, {});
  expect_rejected(dir_ / "huge.qgt");
  // One value short, and one value over.
  write_tensor_body(dir_ / "short.qgt", {2, 2}, {1, 2, 3});
  expect_rejected(dir_ / "short.qgt");
  write_tensor_body(dir_ / "long.qgt", {2, 2}, {1, 2, 3, 4, 5});
  expect_rejected(dir_ / "long.qgt");
}

TEST_F(IoTest, TensorWhoseDimsOverflowIsRejected) {
  // (2^62 + 1) * 4 wraps to 4 in 64 bits, which the 4 values would match.
  write_tensor_body(dir_ / "wrap.qgt", {(std::uint64_t{1} << 62) + 1, 4},
                    {1, 2, 3, 4});
  expect_rejected(dir_ / "wrap.qgt");
  // save_tensor refuses to write the same shape.
  const std::vector<Real> data = {1, 2, 3, 4};
  const std::vector<std::size_t> shape = {(std::size_t{1} << 62) + 1, 4};
  EXPECT_THROW(save_tensor(dir_ / "wrap_save.qgt", data, shape),
               std::invalid_argument);
}

TEST_F(IoTest, TensorsAreFramedAndCorruptionIsDetected) {
  const std::vector<Real> data = {1.5, -2.0, 3.25};
  const std::vector<std::size_t> shape = {3};
  save_tensor(dir_ / "t.qgt", data, shape);

  // The file leads with the frame magic, not the legacy tensor magic.
  std::ifstream in(dir_ / "t.qgt", std::ios::binary);
  char magic[4];
  in.read(magic, 4);
  EXPECT_EQ(std::string(magic, 4), "QGF1");

  std::fstream f(dir_ / "t.qgt", std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(40);
  const char b = '\x11';
  f.write(&b, 1);
  f.close();
  try {
    (void)load_tensor(dir_ / "t.qgt");
    FAIL();
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kCrcMismatch);
  }
}

}  // namespace
}  // namespace qugeo
