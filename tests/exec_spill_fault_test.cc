#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "dataframe/ops.h"
#include "exec/partition.h"
#include "exec/spill.h"
#include "io/columnar.h"

namespace lafp::exec {
namespace {

namespace fs = std::filesystem;
using df::Column;
using df::DataFrame;
using df::DataType;

class SpillFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "spill_fault_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global()->Clear();
    fs::remove_all(dir_);
  }

  DataFrame SampleFrame() {
    auto ints = *Column::MakeInt({1, 2, 3, 4}, {1, 0, 1, 1}, &tracker_);
    auto strs = *Column::MakeString({"aa", "", "cc", "dddd"}, {}, &tracker_);
    auto dbls = *Column::MakeDouble({0.5, -1.25, 3.5, 8.0}, {}, &tracker_);
    return *DataFrame::Make({"i", "s", "d"}, {ints, strs, dbls});
  }

  std::vector<char> FileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  std::string dir_;
  MemoryTracker tracker_{0};
};

// The ISSUE's acceptance bar: an injected ENOSPC mid-spill must never
// leave a readable (or even present) partial file behind.
TEST_F(SpillFaultTest, InjectedWriteFaultUnlinksPartialFile) {
  DataFrame frame = SampleFrame();
  for (int nth = 1; nth <= 3; ++nth) {  // fail on each of the 3 columns
    const std::string path =
        dir_ + "/enospc_" + std::to_string(nth) + ".bin";
    FaultScope scope("spill.write:nth=" + std::to_string(nth));
    Status st = WriteSpillFile(frame, path);
    EXPECT_TRUE(st.IsIOError()) << "nth=" << nth << ": " << st.ToString();
    EXPECT_FALSE(fs::exists(path)) << "partial file left at nth=" << nth;
    EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp file left at nth=" << nth;
  }
  // With the fault exhausted (single-shot), the same write succeeds.
  const std::string path = dir_ + "/ok.bin";
  ASSERT_TRUE(WriteSpillFile(frame, path).ok());
  ASSERT_TRUE(ReadSpillFile(path, &tracker_).ok());
}

TEST_F(SpillFaultTest, InjectedReadFaultSurfacesCleanly) {
  DataFrame frame = SampleFrame();
  const std::string path = dir_ + "/read.bin";
  ASSERT_TRUE(WriteSpillFile(frame, path).ok());
  FaultScope scope("spill.read:nth=1");
  auto result = ReadSpillFile(path, &tracker_);
  EXPECT_TRUE(result.status().IsIOError());
  // Single-shot: the retry succeeds.
  EXPECT_TRUE(ReadSpillFile(path, &tracker_).ok());
}

TEST_F(SpillFaultTest, PartitionSpillIsRetrySafeAfterFault) {
  auto part = std::make_shared<Partition>(SampleFrame());
  {
    FaultScope scope("spill.write:nth=1");
    EXPECT_FALSE(part->SpillTo(dir_, "p0").ok());
  }
  // The partition kept its in-memory frame; a later spill works and the
  // frame still loads from disk.
  EXPECT_FALSE(part->spilled());
  ASSERT_TRUE(part->SpillTo(dir_, "p0").ok());
  EXPECT_TRUE(part->spilled());
  auto frame = part->Load(&tracker_);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->num_rows(), 4u);
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Spill files and exchange payloads are LFC images, so the hostile LFC
// corpus (tests/lfc_corpus) is their corpus too: every file must fail
// with a clean Status through all three entry points — no crash, no
// multi-gigabyte allocation from a hostile length field, no tracker leak.
//
// Each case of the retired spill-stream corpus maps to an LFC file:
//   bad_magic.bin          -> bad_head_magic.lfc
//   bad_type.bin           -> bad_column_type.lfc
//   empty.bin              -> empty.lfc
//   huge_name_len.bin      -> huge_name_len.lfc
//   huge_ncols.bin         -> huge_ncols.lfc
//   huge_nrows.bin         -> huge_rows_payload_wrap.lfc
//   huge_string_len.bin    -> huge_dict_entry_len.lfc
//   rows_without_cols.bin  -> rows_without_cols.lfc
//   truncated_header.bin   -> magic_only.lfc
//   truncated_payload.bin  -> trunc_mid_chunkdata.lfc
//   zero_rows_nonempty_cols.spill -> pins/zero_rows_nonempty_cols.lfc
//                             (positive; ZeroRowCorpusPinStaysReadable)
// gap_before_chunk.lfc pins the tiling check: its chunk starts 4 bytes
// late, which every per-chunk bound accepts.
TEST_F(SpillFaultTest, CorruptCorpusFailsCleanly) {
  const fs::path corpus = LAFP_LFC_CORPUS_DIR;
  ASSERT_TRUE(fs::exists(corpus)) << corpus;
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() != ".lfc") continue;
    const std::string name = entry.path().filename().string();
    const int64_t before = tracker_.current();
    EXPECT_FALSE(io::ReadLfcFile(entry.path().string(), {}, &tracker_).ok())
        << name;
    EXPECT_FALSE(ReadSpillFile(entry.path().string(), &tracker_).ok())
        << name;
    EXPECT_FALSE(DeserializeFrame(ReadBytes(entry.path()), &tracker_).ok())
        << name;
    EXPECT_EQ(tracker_.current(), before) << "tracker leak from " << name;
    ++checked;
  }
  EXPECT_GE(checked, 30);
}

// Positive pin: the checked-in zero-row-with-columns image (the exact
// bytes shard workers emit for an empty partition) must stay readable
// through every entry point, and the encoder must keep producing it — a
// check tightened for hostile files must not regress it.
TEST_F(SpillFaultTest, ZeroRowCorpusPinStaysReadable) {
  const fs::path pin =
      fs::path(LAFP_LFC_CORPUS_DIR) / "pins" / "zero_rows_nonempty_cols.lfc";
  ASSERT_TRUE(fs::exists(pin)) << pin;
  const std::string bytes = ReadBytes(pin);
  std::vector<Result<DataFrame>> reads;
  reads.push_back(io::ReadLfcFile(pin.string(), {}, &tracker_));
  reads.push_back(ReadSpillFile(pin.string(), &tracker_));
  reads.push_back(DeserializeFrame(bytes, &tracker_));
  for (const auto& frame : reads) {
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->num_rows(), 0u);
    ASSERT_EQ(frame->num_columns(), 2u);
    EXPECT_EQ(frame->names(), (std::vector<std::string>{"i", "s"}));
    EXPECT_EQ(frame->column(0)->type(), DataType::kInt64);
    EXPECT_EQ(frame->column(1)->type(), DataType::kString);
  }
  auto encoded = SerializeFrame(*reads.back());
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(*encoded, bytes);
}

// Every strict prefix of a valid spill file is a truncation the reader
// must reject; none may succeed or crash.
TEST_F(SpillFaultTest, EveryTruncationFailsCleanly) {
  DataFrame frame = SampleFrame();
  const std::string path = dir_ + "/full.bin";
  ASSERT_TRUE(WriteSpillFile(frame, path).ok());
  std::vector<char> bytes = FileBytes(path);
  ASSERT_GT(bytes.size(), 20u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string trunc = dir_ + "/trunc.bin";
    std::ofstream(trunc, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(len));
    auto result = ReadSpillFile(trunc, &tracker_);
    EXPECT_FALSE(result.ok()) << "prefix of length " << len << " succeeded";
  }
}

// The exchange decodes payloads from memory: every strict prefix and every
// single-bit flip of a payload must end in a clean Status or a frame of
// the original shape, decoded straight from the buffer (ASan checks that
// no byte outside it is read).
TEST_F(SpillFaultTest, PayloadTruncationsAndBitFlipsFailCleanly) {
  auto payload = SerializeFrame(SampleFrame());
  ASSERT_TRUE(payload.ok());
  const std::string& bytes = *payload;
  for (size_t len = 0; len < bytes.size(); ++len) {
    // A heap copy of exactly `len` bytes, so an over-read is caught.
    const std::vector<char> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(
        DeserializeFrame(std::string_view(prefix.data(), len), &tracker_)
            .ok())
        << "prefix of length " << len << " succeeded";
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[i] ^= static_cast<char>(1 << bit);
      auto result = DeserializeFrame(mutated, &tracker_);
      if (result.ok()) EXPECT_EQ(result->num_rows(), 4u);
    }
  }
}

// Single-byte corruptions of the header region: clean failure or a
// successful read (a flipped bit inside string payload can be benign);
// never a crash or unbounded allocation.
TEST_F(SpillFaultTest, HeaderBitFlipsNeverCrash) {
  DataFrame frame = SampleFrame();
  const std::string path = dir_ + "/flip_src.bin";
  ASSERT_TRUE(WriteSpillFile(frame, path).ok());
  std::vector<char> bytes = FileBytes(path);
  const size_t header_span = std::min<size_t>(bytes.size(), 40);
  for (size_t i = 0; i < header_span; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> mutated = bytes;
      mutated[i] ^= static_cast<char>(1 << bit);
      const std::string flipped = dir_ + "/flip.bin";
      std::ofstream(flipped, std::ios::binary | std::ios::trunc)
          .write(mutated.data(),
                 static_cast<std::streamsize>(mutated.size()));
      auto result = ReadSpillFile(flipped, &tracker_);  // must not crash
      if (!result.ok()) continue;
      EXPECT_LE(result->num_rows(), frame.num_rows() + 64);
    }
  }
}

TEST_F(SpillFaultTest, InjectedWriteErrorMentionsSite) {
  DataFrame frame = SampleFrame();
  const std::string path = dir_ + "/named.bin";
  FaultScope scope("spill.write:nth=1");
  Status st = WriteSpillFile(frame, path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("spill.write"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace lafp::exec
