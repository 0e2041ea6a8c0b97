#include "perfbench/layers.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "dataframe/ops.h"
#include "exec/spill.h"
#include "io/csv.h"
#include "script/analyze.h"

namespace perfbench {

using lafp::trace::Event;

void TraceTotals::Add(const TraceTotals& other) {
  for (const auto& [k, v] : other.self_us) self_us[k] += v;
  for (const auto& [k, v] : other.count) count[k] += v;
  nodes_pruned += other.nodes_pruned;
  nodes_executed += other.nodes_executed;
  for (const auto& [k, v] : other.unattributed_us) unattributed_us[k] += v;
  for (const auto& [k, v] : other.session_us) session_us[k] += v;
}

double TraceTotals::SelfSeconds(const std::string& name) const {
  auto it = self_us.find(name);
  return it == self_us.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
}

double TraceTotals::SelfSecondsWithPrefix(const std::string& prefix) const {
  int64_t total = 0;
  for (auto it = self_us.lower_bound(prefix);
       it != self_us.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    total += it->second;
  }
  return static_cast<double>(total) / 1e6;
}

namespace {

int64_t IntArg(const Event& e, const std::string& key, int64_t fallback) {
  for (const auto& arg : e.args) {
    if (arg.key == key && !arg.is_string) return arg.int_value;
  }
  return fallback;
}

}  // namespace

TraceTotals SummarizeTrace(const std::vector<Event>& events) {
  TraceTotals totals;
  std::unordered_map<uint64_t, size_t> by_id;
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.dur_micros < 0 || e.span_id == 0) continue;
    by_id[e.span_id] = i;
    if (e.parent_id != 0) children[e.parent_id].push_back(i);
  }

  // Root session span of every span (0 when it hangs under no session).
  std::unordered_map<uint64_t, uint64_t> root_memo;
  std::function<uint64_t(uint64_t)> session_root = [&](uint64_t id) {
    auto memo = root_memo.find(id);
    if (memo != root_memo.end()) return memo->second;
    uint64_t root = 0;
    auto it = by_id.find(id);
    if (it != by_id.end()) {
      const Event& e = events[it->second];
      if (e.category == "session") {
        root = id;
      } else if (e.parent_id != 0) {
        root = session_root(e.parent_id);
      }
    }
    root_memo[id] = root;
    return root;
  };

  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const auto& [id, index] : by_id) {
    const Event& e = events[index];
    const int64_t begin = e.ts_micros;
    const int64_t end = e.ts_micros + e.dur_micros;
    intervals.clear();
    auto kids = children.find(id);
    if (kids != children.end()) {
      for (size_t k : kids->second) {
        const Event& c = events[k];
        int64_t b = std::max(begin, c.ts_micros);
        int64_t f = std::min(end, c.ts_micros + c.dur_micros);
        if (f > b) intervals.emplace_back(b, f);
      }
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0, run_begin = 0, run_end = -1;
    for (const auto& [b, f] : intervals) {
      if (run_end < b) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = b;
        run_end = f;
      } else {
        run_end = std::max(run_end, f);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    const int64_t self = std::max<int64_t>(0, e.dur_micros - covered);

    totals.self_us[e.name] += self;
    totals.count[e.name] += 1;
    if (e.category == "pass" && e.name != "pass:cache-splice") {
      int64_t before = IntArg(e, "nodes_before", -1);
      int64_t after = IntArg(e, "nodes_after", -1);
      if (before >= 0 && after >= 0) totals.nodes_pruned += before - after;
    }
    if (e.category == "round") {
      totals.nodes_executed += IntArg(e, "nodes_executed", 0);
    }
    if (e.category == "session" || e.category == "round" ||
        e.category == "node") {
      uint64_t root = session_root(id);
      if (root != 0) {
        const Event& session = events[by_id[root]];
        std::string backend = session.name.substr(session.name.find(':') + 1);
        totals.unattributed_us[backend] += self;
        if (root == id) totals.session_us[backend] += e.dur_micros;
      }
    }
  }
  return totals;
}

std::map<std::string, int64_t> ScrapeCounters() {
  return lafp::metrics::Registry::Global()->Scrape();
}

// ---------------------------------------------------------------------------
// Probes

namespace {

/// Median seconds of one call: at least one call, up to five, stopping
/// once a second has been spent. Every call runs in a bench span.
double TimeCall(const std::string& name, const std::function<void()>& fn) {
  std::vector<double> times;
  lafp::Timer budget;
  while (times.empty() || (times.size() < 5 && budget.ElapsedSeconds() < 1.0)) {
    lafp::trace::Span span("bench:probe:" + name, "bench");
    lafp::Timer timer;
    fn();
    times.push_back(timer.ElapsedSeconds());
  }
  return Median(times);
}

/// Columns keep `tracker` to release their bytes: it must outlive them.
lafp::df::DataFrame ReadAll(const std::string& path,
                            lafp::MemoryTracker* tracker) {
  auto frame = lafp::io::ReadCsv(path, {}, tracker);
  if (!frame.ok()) {
    throw std::runtime_error("probe read of " + path +
                             " failed: " + frame.status().ToString());
  }
  return std::move(frame).ValueOrDie();
}

template <typename T>
void Check(const lafp::Result<T>& result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + " failed: " + result.status().ToString());
  }
}

lafp::df::ColumnPtr Col(const lafp::df::DataFrame& frame,
                        const std::string& name) {
  auto column = frame.column(name);
  Check(column, "column " + name);
  return column.ValueOrDie();
}

}  // namespace

std::map<std::string, double> RunProbes(const Workspace& ws,
                                        const std::string& scratch_dir) {
  namespace df = lafp::df;
  std::map<std::string, double> out;
  lafp::MemoryTracker tracker(0);
  const std::string taxi = ws.paths.at("taxi").at("taxi");
  const double taxi_mb =
      static_cast<double>(std::filesystem::file_size(taxi)) / 1e6;

  // io: whole-file parse, the taxi program's 3-of-20 column subset, and
  // chunked streaming at the Dask partition size.
  out["io.csv.full_mb_per_s"] =
      taxi_mb / TimeCall("csv_full", [&] {
        Check(lafp::io::ReadCsv(taxi, {}, &tracker), "ReadCsv");
      });
  lafp::io::CsvReadOptions usecols;
  usecols.usecols = {"pickup_datetime", "passenger_count", "fare_amount"};
  out["io.csv.usecols_mb_per_s"] =
      taxi_mb / TimeCall("csv_usecols", [&] {
        Check(lafp::io::ReadCsv(taxi, usecols, &tracker), "ReadCsv usecols");
      });
  out["io.csv_chunk.mb_per_s"] =
      taxi_mb / TimeCall("csv_chunk", [&] {
        auto reader = lafp::io::CsvChunkReader::Open(taxi, {}, &tracker);
        Check(reader, "CsvChunkReader::Open");
        while (true) {
          auto chunk = reader.ValueOrDie()->NextChunk(8192);
          Check(chunk, "NextChunk");
          if (!chunk.ValueOrDie().has_value()) break;
        }
      });

  // dataframe kernels on the workload's own frames.
  df::DataFrame frame = ReadAll(taxi, &tracker);
  const double rows = static_cast<double>(frame.num_rows());
  auto fare = Col(frame, "fare_amount");
  auto tip = Col(frame, "tip_amount");
  out["dataframe.filter_ns_per_row"] =
      1e9 / rows * TimeCall("filter", [&] {
        auto mask = df::Compare(*fare, df::CompareOp::kGt,
                                df::Scalar::Double(20.0));
        Check(mask, "Compare");
        Check(df::Filter(frame, *mask.ValueOrDie()), "Filter");
      });
  out["dataframe.arith_ns_per_row"] =
      1e9 / rows * TimeCall("arith", [&] {
        auto scaled =
            df::Arith(*fare, df::ArithOp::kMul, df::Scalar::Double(1.2));
        Check(scaled, "Arith");
        Check(df::ArithColumns(*scaled.ValueOrDie(), df::ArithOp::kAdd, *tip),
              "ArithColumns");
      });
  out["dataframe.groupby_ns_per_row"] =
      1e9 / rows * TimeCall("groupby", [&] {
        Check(df::GroupByAgg(frame, {"pickup_zone"},
                             {{"fare_amount", df::AggFunc::kSum, "fare"}}),
              "GroupByAgg");
      });
  {
    df::DataFrame ratings = ReadAll(ws.paths.at("movie").at("ratings"), &tracker);
    df::DataFrame movies = ReadAll(ws.paths.at("movie").at("movies"), &tracker);
    out["dataframe.merge_ns_per_row"] =
        1e9 / static_cast<double>(ratings.num_rows()) * TimeCall("merge", [&] {
          Check(df::Merge(ratings, movies, {"movieId"}, df::JoinType::kInner),
                "Merge");
        });
  }
  {
    df::DataFrame flights = ReadAll(ws.paths.at("flights").at("flights"), &tracker);
    out["dataframe.sort_ns_per_row"] =
        1e9 / static_cast<double>(flights.num_rows()) * TimeCall("sort", [&] {
          Check(df::SortValues(flights, {"arr_delay"}, {false}), "SortValues");
        });
  }

  // exec spill files and the shard wire codec on the taxi frame.
  const std::string spill_path = scratch_dir + "/probe.spill";
  double write_s = TimeCall("spill_write", [&] {
    lafp::Status st = lafp::exec::WriteSpillFile(frame, spill_path);
    if (!st.ok()) throw std::runtime_error("WriteSpillFile: " + st.ToString());
  });
  const double spill_mb =
      static_cast<double>(std::filesystem::file_size(spill_path)) / 1e6;
  out["exec.spill.write_mb_per_s"] = spill_mb / write_s;
  out["exec.spill.read_mb_per_s"] =
      spill_mb / TimeCall("spill_read", [&] {
        Check(lafp::exec::ReadSpillFile(spill_path, &tracker), "ReadSpillFile");
      });
  std::filesystem::remove(spill_path);
  double wire_mb = 0;
  double wire_s = TimeCall("wire", [&] {
    auto bytes = lafp::exec::SerializeFrame(frame);
    Check(bytes, "SerializeFrame");
    wire_mb = static_cast<double>(bytes.ValueOrDie().size()) / 1e6;
    Check(lafp::exec::DeserializeFrame(bytes.ValueOrDie(), &tracker),
          "DeserializeFrame");
  });
  out["shard.wire_mb_per_s"] = wire_mb / wire_s;

  // script front-end: the JIT analysis of every program.
  lafp::script::AnalyzeOptions analyze;
  analyze.rewrite.metastore = ws.metastore.get();
  std::vector<double> analyze_ms;
  for (const auto& [program, source] : ws.sources) {
    analyze_ms.push_back(1e3 * TimeCall("analyze", [&] {
      Check(lafp::script::Analyze(source, analyze), "Analyze " + program);
    }));
  }
  out["script.analyze_ms.p50"] = Median(analyze_ms);
  return out;
}

}  // namespace perfbench
