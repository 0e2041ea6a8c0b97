#include "exec/spill.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/hash.h"
#include "dataframe/ops.h"
#include "exec/partition.h"

namespace lafp::exec {
namespace {

using df::Column;
using df::DataFrame;
using df::DataType;

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "spill_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DataFrame AllTypesFrame() {
    auto ints = *Column::MakeInt({1, 2, 3}, {1, 0, 1}, &tracker_);
    auto doubles = *Column::MakeDouble({1.5, 2.5, -0.25}, {}, &tracker_);
    auto strings =
        *Column::MakeString({"alpha", "", "gamma"}, {1, 1, 1}, &tracker_);
    auto bools = *Column::MakeBool({1, 0, 1}, {}, &tracker_);
    auto ts = *Column::MakeTimestamp(
        {*df::ParseTimestamp("2024-01-01"), 0,
         *df::ParseTimestamp("1969-12-31 23:00:00")},
        {1, 0, 1}, &tracker_);
    auto cat = *df::CategorizeStrings(
        **Column::MakeString({"x", "y", "x"}, {}, &tracker_), &tracker_);
    return *DataFrame::Make({"i", "d", "s", "b", "t", "c"},
                            {ints, doubles, strings, bools, ts, cat});
  }

  std::string dir_;
  MemoryTracker tracker_{0};
};

TEST_F(SpillTest, RoundTripsAllTypes) {
  DataFrame frame = AllTypesFrame();
  std::string path = dir_ + "/all.bin";
  ASSERT_TRUE(WriteSpillFile(frame, path).ok());
  auto back = ReadSpillFile(path, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 3u);
  EXPECT_EQ(back->names(), frame.names());
  // Categories keep their type and dictionary; values must match.
  EXPECT_EQ((*back->column("c"))->type(), DataType::kCategory);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < frame.num_columns(); ++c) {
      EXPECT_EQ(back->column(c)->ValueString(r),
                frame.column(c)->ValueString(r))
          << "col " << frame.names()[c] << " row " << r;
      EXPECT_EQ(back->column(c)->IsValid(r), frame.column(c)->IsValid(r));
    }
  }
}

TEST_F(SpillTest, EmptyFrameRoundTrips) {
  df::ColumnBuilder b(DataType::kInt64, &tracker_);
  auto empty = *DataFrame::Make({"v"}, {*b.Finish()});
  std::string path = dir_ + "/empty.bin";
  ASSERT_TRUE(WriteSpillFile(empty, path).ok());
  auto back = ReadSpillFile(path, &tracker_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->num_columns(), 1u);
}

// The exchange wire format must round-trip a zero-row partition that
// still carries a real column table (names + dtypes). Shard workers send
// these routinely — a filter that empties one partition must not lose
// the schema or fail the clamp checks sized for nrows >= 1.
TEST_F(SpillTest, ZeroRowNonEmptyColumnsRoundTripOnWire) {
  df::ColumnBuilder ints(DataType::kInt64, &tracker_);
  df::ColumnBuilder strs(DataType::kString, &tracker_);
  df::ColumnBuilder dbls(DataType::kDouble, &tracker_);
  auto empty = *DataFrame::Make(
      {"i", "s", "d"}, {*ints.Finish(), *strs.Finish(), *dbls.Finish()});
  auto bytes = SerializeFrame(empty);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto back = DeserializeFrame(*bytes, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 0u);
  ASSERT_EQ(back->num_columns(), 3u);
  EXPECT_EQ(back->names(), empty.names());
  EXPECT_EQ((*back->column("i"))->type(), DataType::kInt64);
  EXPECT_EQ((*back->column("s"))->type(), DataType::kString);
  EXPECT_EQ((*back->column("d"))->type(), DataType::kDouble);
}

// Message-framed payloads carry an exact length: trailing bytes after
// the frame mean protocol desync and must fail, not be ignored. That
// holds even when the tail is itself a valid image whose trailer the
// decoder would find: the chunks must tile every byte before the footer.
TEST_F(SpillTest, WirePayloadRejectsTrailingJunk) {
  DataFrame frame = AllTypesFrame();
  auto bytes = SerializeFrame(frame);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(DeserializeFrame(*bytes, &tracker_).ok());
  EXPECT_FALSE(DeserializeFrame(*bytes + "x", &tracker_).ok());
  auto doubled = DeserializeFrame(*bytes + *bytes, &tracker_);
  ASSERT_FALSE(doubled.ok());
  EXPECT_NE(doubled.status().message().find("belong to no chunk"),
            std::string::npos)
      << doubled.status().ToString();
}

// Rows claimed with no columns to hold them are unrepresentable; the
// footer check must reject the combination (ncols == 0 && nrows > 0)
// while the legitimate zero-row / zero-column image keeps decoding.
TEST_F(SpillTest, RejectsRowsWithoutColumns) {
  auto bytes = SerializeFrame(DataFrame());
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(DeserializeFrame(*bytes, &tracker_).ok());
  // The empty image is magic | footer | trailer. Its footer is
  // u32 version | u64 nrows | u64 chunk_rows | u32 ncols | u32 nchunks.
  // Forge nrows = 5 with one 5-row chunk, and re-seal the checksum so the
  // decoder reaches the column-count check.
  const size_t footer_start = 8;
  std::string footer = bytes->substr(footer_start, 28);
  const uint64_t rows = 5;
  const uint32_t nchunks = 1;
  std::memcpy(footer.data() + 4, &rows, 8);
  std::memcpy(footer.data() + 24, &nchunks, 4);
  footer.append(reinterpret_cast<const char*>(&rows), 8);
  const uint64_t footer_len = footer.size();
  const uint64_t checksum = Fnv1a64(footer);
  std::string forged = bytes->substr(0, footer_start) + footer;
  forged.append(reinterpret_cast<const char*>(&footer_len), 8);
  forged.append(reinterpret_cast<const char*>(&checksum), 8);
  forged.append(bytes->substr(bytes->size() - 8));  // tail magic
  auto back = DeserializeFrame(forged, &tracker_);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("row count without columns"),
            std::string::npos)
      << back.status().ToString();
}

TEST_F(SpillTest, RejectsGarbageAndTruncation) {
  std::string path = dir_ + "/garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a spill file at all";
  }
  EXPECT_FALSE(ReadSpillFile(path, &tracker_).ok());

  // Truncate a valid file mid-payload.
  DataFrame frame = AllTypesFrame();
  std::string full = dir_ + "/full.bin";
  ASSERT_TRUE(WriteSpillFile(frame, full).ok());
  auto size = std::filesystem::file_size(full);
  std::filesystem::resize_file(full, size / 2);
  EXPECT_FALSE(ReadSpillFile(full, &tracker_).ok());

  EXPECT_FALSE(ReadSpillFile(dir_ + "/missing.bin", &tracker_).ok());
}

TEST_F(SpillTest, ReloadChargesTracker) {
  DataFrame frame = AllTypesFrame();
  std::string path = dir_ + "/charge.bin";
  ASSERT_TRUE(WriteSpillFile(frame, path).ok());
  MemoryTracker fresh(0);
  auto back = ReadSpillFile(path, &fresh);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(fresh.current(), 0);
  MemoryTracker tiny(8);
  EXPECT_TRUE(ReadSpillFile(path, &tiny).status().IsOutOfMemory());
}

TEST_F(SpillTest, PartitionSpillReleasesMemory) {
  MemoryTracker tracker(0);
  auto big = *Column::MakeInt(std::vector<int64_t>(10000, 7), {}, &tracker);
  auto frame = *DataFrame::Make({"v"}, {big});
  big.reset();
  Partition partition(std::move(frame));
  int64_t before = tracker.current();
  EXPECT_GT(before, 0);
  ASSERT_TRUE(partition.SpillTo(dir_, "p0").ok());
  EXPECT_LT(tracker.current(), before / 10);  // memory released
  EXPECT_TRUE(partition.spilled());
  EXPECT_EQ(partition.num_rows(), 10000u);
  auto reloaded = partition.Load(&tracker);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_rows(), 10000u);
  EXPECT_EQ((*reloaded->column("v"))->IntAt(9999), 7);
}

TEST_F(SpillTest, SpillAllAndToEager) {
  MemoryTracker tracker(0);
  auto col = *Column::MakeInt({1, 2, 3, 4, 5, 6}, {}, &tracker);
  auto frame = *DataFrame::Make({"v"}, {col});
  col.reset();
  auto parts = PartitionedFrame::FromEager(frame, 2);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->num_partitions(), 3u);
  ASSERT_TRUE(parts->SpillAll(dir_, "chunk").ok());
  auto eager = parts->ToEager(&tracker);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->num_rows(), 6u);
  EXPECT_EQ((*eager->column("v"))->IntAt(5), 6);
}

}  // namespace
}  // namespace lafp::exec
