// One strategy test for both placements of exec::PartitionedExecutor: the
// thread-pool placement (Modin, threads 1/4) and the forked-process
// placement (Shard, 1/2/4 workers). Every strategy — aligned map and the
// misaligned fallback, two-phase group-by and its nunique fallback,
// reduce for every AggFunc and dtype, broadcast merge, len and the sort
// fallback — must reproduce the eager kernels' output exactly: values
// compare by type and bit pattern, never by formatted text.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "dataframe/ops.h"
#include "exec/backend.h"
#include "io/columnar.h"

namespace lafp::exec {
namespace {

using df::AggFunc;
using df::Column;
using df::ColumnPtr;
using df::DataFrame;
using df::DataType;
using df::Scalar;

constexpr size_t kPartitionRows = 64;

struct PlacementCase {
  BackendKind kind;
  int width;  // Modin partition threads, or Shard worker processes
};

std::string CaseName(const ::testing::TestParamInfo<PlacementCase>& info) {
  return std::string(info.param.kind == BackendKind::kModin ? "Modin"
                                                            : "Shard") +
         std::to_string(info.param.width);
}

/// Exact rendering of a scalar: type tag plus the value's bits.
std::string Canon(const Scalar& s) {
  std::string out = std::to_string(static_cast<int>(s.type())) + ":";
  switch (s.type()) {
    case DataType::kNull:
      return out + "null";
    case DataType::kBool:
      return out + (s.bool_value() ? "1" : "0");
    case DataType::kInt64:
    case DataType::kTimestamp:
      return out + std::to_string(s.int_value());
    case DataType::kDouble: {
      double d = s.double_value();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      return out + std::to_string(bits);
    }
    case DataType::kString:
    case DataType::kCategory:
      return out + s.string_value();
  }
  return out;
}

/// Exact rendering of a frame: names, column types, and every cell.
std::string Canon(const DataFrame& frame) {
  std::string out;
  for (size_t c = 0; c < frame.num_columns(); ++c) {
    const Column& col = *frame.column(c);
    out += frame.names()[c] + "/" +
           std::to_string(static_cast<int>(col.type())) + "[";
    for (size_t r = 0; r < col.size(); ++r) out += Canon(col.ScalarAt(r)) + ",";
    out += "]\n";
  }
  return out;
}

std::string Canon(const Result<EagerValue>& v) {
  if (!v.ok()) return "error:" + std::to_string(static_cast<int>(v.status().code()));
  return v->is_scalar ? Canon(v->scalar) : Canon(v->frame);
}

class PartitionedTest : public ::testing::TestWithParam<PlacementCase> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "exec_partitioned_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    BackendConfig config;
    config.partition_rows = kPartitionRows;
    config.num_threads = GetParam().width;
    config.shards = GetParam().width;
    backend_ = MakeBackend(GetParam().kind, &tracker_, config);
    facts_ = MakeFacts(700);
  }
  void TearDown() override {
    backend_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// id, g (group key), v (int), d (exact-in-binary double, some null),
  /// b (bool), s (string, some null), c (category, some null).
  DataFrame MakeFacts(int n) {
    std::vector<int64_t> id, g, v;
    std::vector<double> d;
    std::vector<uint8_t> b, d_valid, s_valid, c_valid;
    std::vector<std::string> s, c;
    for (int i = 0; i < n; ++i) {
      id.push_back(i);
      g.push_back(i % 9);
      v.push_back((i * 7) % 101 - 40);
      d.push_back(0.25 * ((i * 13) % 37));
      d_valid.push_back(i % 11 != 0);
      b.push_back(i % 3 == 0);
      s.push_back("s" + std::to_string((i * 5) % 17));
      s_valid.push_back(i % 7 != 0);
      c.push_back("c" + std::to_string(i % 4));
      c_valid.push_back(i % 13 != 0);
    }
    return *DataFrame::Make(
        {"id", "g", "v", "d", "b", "s", "c"},
        {*Column::MakeInt(id, {}, &tracker_), *Column::MakeInt(g, {}, &tracker_),
         *Column::MakeInt(v, {}, &tracker_),
         *Column::MakeDouble(d, d_valid, &tracker_),
         *Column::MakeBool(b, {}, &tracker_),
         *Column::MakeString(s, s_valid, &tracker_),
         *df::CategorizeStrings(**Column::MakeString(c, c_valid, &tracker_),
                                &tracker_)});
  }

  BackendValue Place(const DataFrame& frame) {
    auto placed = backend_->FromEager(EagerValue::Frame(frame));
    EXPECT_TRUE(placed.ok()) << placed.status().ToString();
    return *placed;
  }

  /// Runs `desc` on the placement and eagerly; both canonical renderings.
  std::pair<std::string, std::string> Both(
      const OpDesc& desc, const std::vector<BackendValue>& placed,
      const std::vector<EagerValue>& eager) {
    auto out = backend_->Execute(desc, placed);
    std::string got = out.ok() ? Canon(backend_->Materialize(*out))
                               : Canon(Result<EagerValue>(out.status()));
    return {got, Canon(ExecuteEagerOp(desc, eager, &tracker_))};
  }

  std::string dir_;
  MemoryTracker tracker_{0};
  std::unique_ptr<Backend> backend_;
  DataFrame facts_;
};

OpDesc GetColumn(const std::string& name) {
  OpDesc d;
  d.kind = OpKind::kGetColumn;
  d.column = name;
  return d;
}

TEST_P(PartitionedTest, AlignedMapMatchesEager) {
  BackendValue facts = Place(facts_);
  OpDesc cmp;
  cmp.kind = OpKind::kCompare;
  cmp.compare_op = df::CompareOp::kLt;
  cmp.has_scalar = true;
  cmp.scalar = Scalar::Int(20);
  auto v = backend_->Execute(GetColumn("v"), {facts});
  ASSERT_TRUE(v.ok());
  auto mask = backend_->Execute(cmp, {*v});
  ASSERT_TRUE(mask.ok());
  auto eager_mask =
      ExecuteEagerOp(cmp, {*ExecuteEagerOp(GetColumn("v"),
                                           {EagerValue::Frame(facts_)},
                                           &tracker_)},
                     &tracker_);
  OpDesc filter;
  filter.kind = OpKind::kFilter;
  auto [got, want] = Both(filter, {facts, *mask},
                          {EagerValue::Frame(facts_), *eager_mask});
  EXPECT_EQ(got, want);
}

// An LFC scan partitions by the file's chunks, so a frame placed with
// partition_rows chunks is misaligned with it; the map falls back to the
// gather path and still matches.
TEST_P(PartitionedTest, MisalignedMapFallsBackToGather) {
  const std::string path = dir_ + "/facts.lfc";
  io::LfcWriteOptions options;
  options.chunk_rows = 3 * kPartitionRows + 5;
  ASSERT_TRUE(io::WriteLfcFile(facts_, path, options).ok());
  OpDesc scan;
  scan.kind = OpKind::kReadLfc;
  scan.path = path;
  auto facts = backend_->Execute(scan, {});
  ASSERT_TRUE(facts.ok()) << facts.status().ToString();
  std::vector<uint8_t> bits(facts_.num_rows());
  for (size_t i = 0; i < bits.size(); i += 3) bits[i] = 1;
  auto mask = *DataFrame::Make({"m"}, {*Column::MakeBool(bits, {}, &tracker_)});
  OpDesc filter;
  filter.kind = OpKind::kFilter;
  auto [got, want] =
      Both(filter, {*facts, Place(mask)},
           {EagerValue::Frame(facts_), EagerValue::Frame(mask)});
  EXPECT_EQ(got, want);
  EXPECT_NE(got.find("id/"), std::string::npos);
}

TEST_P(PartitionedTest, GroupByMatchesEagerIncludingNuniqueFallback) {
  BackendValue facts = Place(facts_);
  OpDesc gb;
  gb.kind = OpKind::kGroupByAgg;
  gb.columns = {"g"};
  gb.aggs = {{"v", AggFunc::kSum, "vs"},  {"d", AggFunc::kMean, "dm"},
             {"d", AggFunc::kCount, "dn"}, {"s", AggFunc::kMin, "smin"},
             {"v", AggFunc::kMax, "vmax"}, {"b", AggFunc::kSum, "bs"}};
  auto [got, want] = Both(gb, {facts}, {EagerValue::Frame(facts_)});
  EXPECT_EQ(got, want);
  gb.aggs.push_back({"s", AggFunc::kNunique, "su"});
  auto [got_nu, want_nu] = Both(gb, {facts}, {EagerValue::Frame(facts_)});
  EXPECT_EQ(got_nu, want_nu);
}

TEST_P(PartitionedTest, ReduceEveryFunctionAndDtypeMatchesEager) {
  const int64_t big = std::numeric_limits<int64_t>::max();
  std::vector<std::pair<std::string, DataFrame>> series;
  for (const char* col : {"v", "d", "b", "s"}) {
    series.emplace_back(col, *facts_.Select({col}));
  }
  // Per-partition int sums that wrap when folded.
  std::vector<int64_t> wrap(3 * kPartitionRows, 0);
  wrap[0] = big;
  wrap[kPartitionRows] = big;
  wrap[2 * kPartitionRows] = 1;
  series.emplace_back("wrap", *DataFrame::Make(
                                  {"w"}, {*Column::MakeInt(wrap, {}, &tracker_)}));
  const size_t n = 2 * kPartitionRows + 3;
  std::vector<uint8_t> none(n, 0);
  series.emplace_back(
      "null_int",
      *DataFrame::Make({"x"}, {*Column::MakeInt(std::vector<int64_t>(n), none,
                                                &tracker_)}));
  series.emplace_back(
      "null_str",
      *DataFrame::Make({"x"}, {*Column::MakeString(
                                   std::vector<std::string>(n), none,
                                   &tracker_)}));
  for (const char* col : {"v", "d", "s"}) {
    series.emplace_back(std::string("empty_") + col,
                        *(*facts_.Select({col})).SliceRows(0, 0));
  }
  for (const auto& [label, frame] : series) {
    BackendValue placed = Place(frame);
    for (AggFunc func : {AggFunc::kSum, AggFunc::kMean, AggFunc::kCount,
                         AggFunc::kMin, AggFunc::kMax, AggFunc::kNunique}) {
      OpDesc reduce;
      reduce.kind = OpKind::kReduce;
      reduce.agg_func = func;
      auto [got, want] = Both(reduce, {placed}, {EagerValue::Frame(frame)});
      EXPECT_EQ(got, want) << label << " func=" << static_cast<int>(func);
    }
  }
}

// int64 and timestamp extremes stay in the integer domain, eagerly and
// through every placement's fold: a double holds neither INT64_MAX (the
// cast back is out of range) nor 2^53 + 1 (it rounds to 2^53). The
// expectations are absolute, because Both() alone passes when the eager
// kernel and the fold are wrong in the same way.
TEST_P(PartitionedTest, IntExtremesStayExact) {
  for (const int64_t hi : {std::numeric_limits<int64_t>::max(),
                           (int64_t{1} << 53) + 1}) {
    // Zeros with the extreme in the middle partition.
    std::vector<int64_t> vals(3 * kPartitionRows, 0);
    vals[kPartitionRows + 1] = hi;
    const std::vector<std::pair<ColumnPtr, Scalar (*)(int64_t)>> columns = {
        {*Column::MakeInt(vals, {}, &tracker_), &Scalar::Int},
        {*Column::MakeTimestamp(vals, {}, &tracker_), &Scalar::Timestamp}};
    for (const auto& [column, scalar_of] : columns) {
      const std::string label = std::to_string(hi) + "/" +
                                df::DataTypeName(column->type());
      DataFrame frame = *DataFrame::Make({"x"}, {column});
      BackendValue placed = Place(frame);
      for (AggFunc func : {AggFunc::kMax, AggFunc::kMin}) {
        OpDesc reduce;
        reduce.kind = OpKind::kReduce;
        reduce.agg_func = func;
        auto [got, want] = Both(reduce, {placed}, {EagerValue::Frame(frame)});
        const std::string exact =
            Canon(scalar_of(func == AggFunc::kMax ? hi : 0));
        EXPECT_EQ(want, exact) << label << " eager";
        EXPECT_EQ(got, exact) << label << " placed";
      }
      // The two-phase group-by folds per-partition extremes the same way.
      std::vector<int64_t> keys(vals.size(), 1);
      DataFrame keyed = *DataFrame::Make(
          {"k", "x"}, {*Column::MakeInt(keys, {}, &tracker_), column});
      OpDesc gb;
      gb.kind = OpKind::kGroupByAgg;
      gb.columns = {"k"};
      gb.aggs = {{"x", AggFunc::kMax, "mx"}, {"x", AggFunc::kMin, "mn"}};
      auto [got, want] = Both(gb, {Place(keyed)}, {EagerValue::Frame(keyed)});
      DataFrame expected = *DataFrame::Make(
          {"k", "mx", "mn"},
          {*Column::MakeInt({1}, {}, &tracker_),
           *Column::MakeConstant(scalar_of(hi), 1, &tracker_),
           *Column::MakeConstant(scalar_of(0), 1, &tracker_)});
      EXPECT_EQ(want, Canon(expected)) << label << " eager group-by";
      EXPECT_EQ(got, Canon(expected)) << label << " placed group-by";
    }
  }
}

TEST_P(PartitionedTest, MergeLenAndSortMatchEager) {
  BackendValue facts = Place(facts_);
  std::vector<int64_t> g;
  std::vector<std::string> name;
  for (int i = 0; i < 9; i += 2) {
    g.push_back(i);
    name.push_back("grp" + std::to_string(i));
  }
  DataFrame dim = *DataFrame::Make(
      {"g", "name"}, {*Column::MakeInt(g, {}, &tracker_),
                      *Column::MakeString(name, {}, &tracker_)});
  OpDesc merge;
  merge.kind = OpKind::kMerge;
  merge.columns = {"g"};
  merge.join_type = df::JoinType::kInner;
  auto [got, want] = Both(merge, {facts, Place(dim)},
                          {EagerValue::Frame(facts_), EagerValue::Frame(dim)});
  EXPECT_EQ(got, want);

  OpDesc len;
  len.kind = OpKind::kLen;
  auto [got_len, want_len] = Both(len, {facts}, {EagerValue::Frame(facts_)});
  EXPECT_EQ(got_len, want_len);

  OpDesc sort;
  sort.kind = OpKind::kSortValues;
  sort.columns = {"v", "id"};
  sort.ascending = {false, true};
  auto [got_sort, want_sort] = Both(sort, {facts}, {EagerValue::Frame(facts_)});
  EXPECT_EQ(got_sort, want_sort);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, PartitionedTest,
    ::testing::Values(PlacementCase{BackendKind::kModin, 1},
                      PlacementCase{BackendKind::kModin, 4},
                      PlacementCase{BackendKind::kShard, 1},
                      PlacementCase{BackendKind::kShard, 2},
                      PlacementCase{BackendKind::kShard, 4}),
    CaseName);

// Thread placement: group-by partials and reduce partials run on the
// partition pool, one `partition` span per partition.
TEST(ThreadPlacementTest, PartialsRunAsPartitionTasks) {
  MemoryTracker tracker(0);
  BackendConfig config;
  config.partition_rows = kPartitionRows;
  config.num_threads = 4;
  auto backend = MakeBackend(BackendKind::kModin, &tracker, config);
  std::vector<int64_t> v(10 * kPartitionRows);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i % 13);
  auto frame = *DataFrame::Make({"k", "v"},
                                {*Column::MakeInt(v, {}, &tracker),
                                 *Column::MakeInt(v, {}, &tracker)});
  auto placed = backend->FromEager(EagerValue::Frame(frame));
  ASSERT_TRUE(placed.ok());
  auto series = backend->Execute(GetColumn("v"), {*placed});
  ASSERT_TRUE(series.ok());

  trace::Tracer* tracer = trace::Tracer::Global();
  const bool was_enabled = tracer->enabled();
  tracer->set_enabled(true);
  uint64_t root_id = 0;
  {
    trace::Span root("partitioned_test", "test");
    root_id = root.id();
    OpDesc gb;
    gb.kind = OpKind::kGroupByAgg;
    gb.columns = {"k"};
    gb.aggs = {{"v", AggFunc::kSum, "s"}};
    ASSERT_TRUE(backend->Execute(gb, {*placed}).ok());
    OpDesc reduce;
    reduce.kind = OpKind::kReduce;
    reduce.agg_func = AggFunc::kMean;
    ASSERT_TRUE(backend->Execute(reduce, {*series}).ok());
  }
  tracer->set_enabled(was_enabled);
  int groupby_tasks = 0, reduce_tasks = 0;
  for (const auto& e : tracer->SnapshotSubtree(root_id)) {
    if (e.name != "partition") continue;
    for (const auto& arg : e.args) {
      if (arg.key != "op") continue;
      groupby_tasks += arg.string_value == "groupby";
      reduce_tasks += arg.string_value == "reduce";
    }
  }
  EXPECT_EQ(groupby_tasks, 10);
  EXPECT_EQ(reduce_tasks, 10);
}

// Process placement: a reduce ships one small partial per partition, so
// the bytes on the wire do not grow with the rows in each partition.
TEST(ProcessPlacementTest, ReduceShipsPartialsNotRows) {
  auto shipped_for = [](size_t rows_per_partition) -> int64_t {
    MemoryTracker tracker(0);
    BackendConfig config;
    config.partition_rows = rows_per_partition;
    config.shards = 2;
    auto backend = MakeBackend(BackendKind::kShard, &tracker, config);
    std::vector<double> v(4 * rows_per_partition, 1.5);
    auto frame =
        *DataFrame::Make({"v"}, {*Column::MakeDouble(v, {}, &tracker)});
    auto placed = backend->FromEager(EagerValue::Frame(frame));
    EXPECT_TRUE(placed.ok());
    auto* counter =
        metrics::Registry::Global()->GetCounter("shard.bytes_shipped");
    const int64_t before = counter->Value();
    OpDesc reduce;
    reduce.kind = OpKind::kReduce;
    reduce.agg_func = AggFunc::kSum;
    auto sum = backend->Execute(reduce, {*placed});
    EXPECT_TRUE(sum.ok());
    EXPECT_EQ(sum->scalar.double_value(), 1.5 * static_cast<double>(v.size()));
    return counter->Value() - before;
  };
  const int64_t small = shipped_for(16);
  const int64_t large = shipped_for(16 * 1024);
  EXPECT_GT(small, 0);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace lafp::exec
