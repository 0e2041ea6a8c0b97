// lafp_perfbench: the end-to-end benchmark of LaFP (perfbench/README.md).
//
//   lafp_perfbench --workload inmem_s|outofcore_l|serve_mixed --seed N
//                  --seconds S --trace 0|1 --workdir DIR [--source-id ID]
//
// Prints a host line, one line per metric, and as its last line a JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics (tracer off); --trace 1 reports the per-layer
// metrics from a separate traced run. Exits 1 when any output differs from
// the eager-Pandas reference or a run fails for a reason other than the
// memory budget.
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/programs.h"
#include "common/timer.h"
#include "common/trace.h"
#include "perfbench/engine.h"
#include "perfbench/layers.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using lafp::Timer;
using lafp::trace::Tracer;

/// Threads and connections the benchmark drives with (setup parallelism,
/// service pools): the reference host's nproc, fixed so that the work
/// does not change with the machine.
constexpr int kThreads = 4;

/// Setups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string source_id = "unknown";
};

/// Metrics in print order with their units.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(), items_[i].value,
                    items_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const auto& m : items_) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Outcome accounting shared by every workload.
struct Tally {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;  // outcomes other than success or an expected OOM
  bool correct = true;
};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  utsname u{};
  ::uname(&u);
  return u.machine;
}

void PrintHost(const Args& args) {
  std::printf(
      "host {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"source\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      LAFP_PERFBENCH_COMPILER, LAFP_PERFBENCH_BUILD_TYPE,
      args.source_id.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);
}

/// Machine-wide CPU ticks from /proc/stat: {steal, all}. Steal is time
/// the hypervisor gave this machine's vCPUs to someone else.
std::pair<int64_t, int64_t> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  int64_t steal = 0, all = 0, value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    all += value;
    if (field == 7) steal = value;
  }
  return {steal, all};
}

void CheckStatus(const lafp::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

/// Run `setup` `times` times and return the median wall time. Each setup
/// rebuilds the same workspace, so the last one is what the run uses.
double TimedSetups(int times, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    Timer timer;
    setup();
    seconds.push_back(timer.ElapsedSeconds());
  }
  return Median(seconds);
}

std::map<std::string, int64_t> CounterDeltas(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after) {
  std::map<std::string, int64_t> deltas;
  for (const auto& [name, value] : after) {
    auto b = before.find(name);
    deltas[name] = value - (b == before.end() ? 0 : b->second);
  }
  return deltas;
}

int64_t Count(const std::map<std::string, int64_t>& counters,
              const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Batch workloads: inmem_s and outofcore_l

struct BatchSpec {
  int scale;
  int64_t budget_bytes;
  std::vector<Config> configs;
  /// Programs whose run is expected to exceed the budget (Fig. 12: emp's
  /// external plot of the full frame fails on every backend at L).
  std::set<std::string> expected_oom;
};

BatchSpec SpecFor(const std::string& workload) {
  if (workload == "inmem_s") {
    return {1, 100'000'000, {LPandas(), LModin(), LShard()}, {}};
  }
  // The Fig. 12 L row puts 9x S data under 100 MB. Twice S under 2/9 of
  // that budget keeps the data-to-budget ratio and fits three passes in a
  // run, where one pass at L takes longer than a whole run.
  return {2, 22'200'000, {LDask()}, {"emp"}};
}

struct Cell {
  std::string program;
  std::string config;
  RunResult result;
};

struct Pass {
  std::vector<Cell> cells;
  double seconds = 0;
};

void Judge(const Cell& cell, const Workspace& ws, const BatchSpec& spec,
           Tally* tally) {
  ++tally->attempted;
  const RunResult& r = cell.result;
  const std::string where = cell.program + "/" + cell.config;
  if (r.status.ok()) {
    if (r.checksums != ws.reference.at(cell.program)) {
      std::fprintf(stderr, "MISMATCH %s\n--- got\n%s--- reference\n%s",
                   where.c_str(), r.checksums.c_str(),
                   ws.reference.at(cell.program).c_str());
      tally->correct = false;
      ++tally->failed;
      return;
    }
    ++tally->ok;
  } else if (r.status.IsOutOfMemory()) {
    if (spec.expected_oom.count(cell.program) == 0) {
      std::fprintf(stderr, "unexpected OOM %s: %s\n", where.c_str(),
                   r.status.ToString().c_str());
      ++tally->failed;
    }
  } else {
    std::fprintf(stderr, "FAILED %s: %s\n", where.c_str(),
                 r.status.ToString().c_str());
    tally->correct = false;
    ++tally->failed;
  }
}

/// One untraced pass over every (config, program) cell.
Pass RunPass(const Workspace& ws, const BatchSpec& spec, Tally* tally) {
  Pass pass;
  Timer timer;
  for (const auto& config : spec.configs) {
    for (const auto& program : lafp::bench::ProgramNames()) {
      Cell cell{program, config.name,
                RunCell(ws, program, config, spec.budget_bytes,
                        /*trace=*/false)};
      Judge(cell, ws, spec, tally);
      pass.cells.push_back(std::move(cell));
    }
  }
  pass.seconds = timer.ElapsedSeconds();
  return pass;
}

double ConfigSeconds(const Pass& pass, const std::string& config) {
  double total = 0;
  for (const auto& cell : pass.cells) {
    if (cell.config == config) total += cell.result.seconds;
  }
  return total;
}

void BatchEndToEnd(const Args& args, const BatchSpec& spec, Metrics* metrics,
                   Tally* tally) {
  Workspace ws;
  double setup_s = TimedSetups(kSetups, [&] {
    CheckStatus(BuildWorkspace(args.workdir + "/ws", spec.scale, args.seed,
                               /*with_reference=*/true, kThreads, &ws),
                "setup");
  });

  // At least three passes, so that suite_s is a median of three.
  std::vector<Pass> passes;
  Timer window;
  do {
    passes.push_back(RunPass(ws, spec, tally));
  } while (window.ElapsedSeconds() < args.seconds || passes.size() < 3);

  std::vector<double> suite, runs, first_output, peak_sums;
  double peak_max = 0, busy = 0;
  for (const auto& pass : passes) {
    suite.push_back(pass.seconds);
    busy += pass.seconds;
    double peak_sum = 0;
    for (const auto& cell : pass.cells) {
      if (!cell.result.status.ok()) continue;
      runs.push_back(cell.result.seconds);
      first_output.push_back(cell.result.first_output_s);
      double mb = static_cast<double>(cell.result.peak_bytes) / 1e6;
      peak_sum += mb;
      peak_max = std::max(peak_max, mb);
    }
    peak_sums.push_back(peak_sum);
  }
  std::printf("%s: %zu passes, %lld runs, %zu ok (the run_s samples)\n",
              args.workload.c_str(), passes.size(),
              static_cast<long long>(tally->attempted), runs.size());
  for (const auto& pass : passes) {
    std::printf("  pass %.3f s:", pass.seconds);
    for (const auto& config : spec.configs) {
      std::printf(" %s %.3f", config.name.c_str(),
                  ConfigSeconds(pass, config.name));
    }
    std::printf("\n");
  }
  metrics->Set("setup_s", setup_s, "s");
  metrics->Set("suite_s", Median(suite), "s");
  metrics->Set("run_s.p50", Quantile(runs, 0.5), "s");
  metrics->Set("run_s.p90", Quantile(runs, 0.9), "s");
  metrics->Set("first_output_s.p50", Median(first_output), "s");
  metrics->Set("peak_mb.sum", Median(peak_sums), "MB");
  metrics->Set("peak_mb.max", peak_max, "MB");
  metrics->Set("ok_ratio",
               static_cast<double>(tally->ok) / static_cast<double>(tally->attempted),
               "ratio");
  // Aliases (perfbench/README.md): batch runs have no serve latency and,
  // with the result cache off, no repeat path, so these restate run_s.
  metrics->Set("latency_ms.p50", 1e3 * Quantile(runs, 0.5), "ms");
  metrics->Set("latency_ms.p90", 1e3 * Quantile(runs, 0.9), "ms");
  metrics->Set("latency_ms.repeat.p50", 1e3 * Quantile(runs, 0.5), "ms");
  metrics->Set("throughput_rps", static_cast<double>(runs.size()) / busy, "1/s");
}

/// Metrics read from span self times and counter deltas (both batch and
/// serve traced runs).
void LayerMetricsFromTrace(const TraceTotals& t,
                           const std::map<std::string, int64_t>& counters,
                           Metrics* m) {
  m->Set("io.csv.read_s", t.SelfSeconds("csv:read"), "s");
  m->Set("io.csv.chunks", Count(counters, "csv.chunks"), "count");
  m->Set("dataframe.kernel_s", t.SelfSeconds("kernel"), "s");
  m->Set("dataframe.morsels", Count(counters, "kernel.morsels"), "count");
  m->Set("exec.pandas.execute_s", t.SelfSeconds("pandas:execute"), "s");
  m->Set("exec.modin.execute_s", t.SelfSeconds("modin:execute"), "s");
  m->Set("exec.modin.partition_s", t.SelfSeconds("partition"), "s");
  auto dask = t.unattributed_us.find("dask");
  m->Set("exec.dask.stream_s",
         dask == t.unattributed_us.end() ? 0.0 : dask->second / 1e6, "s");
  m->Set("exec.spill.writes", Count(counters, "spill.writes"), "count");
  m->Set("shard.bytes_shipped", Count(counters, "shard.bytes_shipped"),
         "bytes");
  m->Set("shard.calls", Count(counters, "shard.calls"), "count");
  m->Set("shard.recv_s", t.SelfSeconds("shard:recv"), "s");
  m->Set("optimizer.pass_ms",
         1e3 * (t.SelfSecondsWithPrefix("pass:") -
                t.SelfSeconds("pass:cache-splice")),
         "ms");
  m->Set("optimizer.nodes_pruned", static_cast<double>(t.nodes_pruned), "count");
  m->Set("lazy.rounds", Count(counters, "session.rounds"), "count");
  m->Set("lazy.nodes_executed", static_cast<double>(t.nodes_executed), "count");
  int64_t hits = Count(counters, "cache.hits");
  int64_t lookups = hits + Count(counters, "cache.misses");
  m->Set("lazy.cache.hit_ratio",
         lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio");
  auto lookup_count = t.count.find("cache.lookup");
  m->Set("lazy.cache.lookup_ms",
         lookup_count == t.count.end()
             ? 0.0
             : 1e3 * t.SelfSeconds("cache.lookup") / lookup_count->second,
         "ms");
  for (const char* backend : {"pandas", "modin", "shard", "dask"}) {
    auto un = t.unattributed_us.find(backend);
    auto wall = t.session_us.find(backend);
    double share = (un == t.unattributed_us.end() ||
                    wall == t.session_us.end() || wall->second == 0)
                       ? 0.0
                       : static_cast<double>(un->second) / wall->second;
    m->Set(std::string("common.unattributed_share.") + backend, share, "ratio");
  }
}

/// Every per-layer metric, zero until measured (a layer the workload does
/// not exercise reads 0).
void DeclareLayerMetrics(Metrics* m) {
  static const std::pair<const char*, const char*> kLayer[] = {
      {"io.csv.full_mb_per_s", "MB/s"},
      {"io.csv.usecols_mb_per_s", "MB/s"},
      {"io.csv_chunk.mb_per_s", "MB/s"},
      {"io.csv.read_s", "s"},
      {"io.csv.chunks", "count"},
      {"dataframe.filter_ns_per_row", "ns/row"},
      {"dataframe.arith_ns_per_row", "ns/row"},
      {"dataframe.groupby_ns_per_row", "ns/row"},
      {"dataframe.merge_ns_per_row", "ns/row"},
      {"dataframe.sort_ns_per_row", "ns/row"},
      {"dataframe.kernel_s", "s"},
      {"dataframe.morsels", "count"},
      {"exec.pandas.execute_s", "s"},
      {"exec.modin.execute_s", "s"},
      {"exec.modin.partition_s", "s"},
      {"exec.dask.stream_s", "s"},
      {"exec.dask.sim_overhead_s", "s"},
      {"exec.modin.sim_overhead_s", "s"},
      {"exec.spill.writes", "count"},
      {"exec.spill.write_mb_per_s", "MB/s"},
      {"exec.spill.read_mb_per_s", "MB/s"},
      {"shard.bytes_shipped", "bytes"},
      {"shard.calls", "count"},
      {"shard.recv_s", "s"},
      {"shard.wire_mb_per_s", "MB/s"},
      {"optimizer.pass_ms", "ms"},
      {"optimizer.nodes_pruned", "count"},
      {"lazy.rounds", "count"},
      {"lazy.nodes_executed", "count"},
      {"lazy.cache.hit_ratio", "ratio"},
      {"lazy.cache.lookup_ms", "ms"},
      {"script.analyze_ms.p50", "ms"},
      {"serve.healthz_ms.p50", "ms"},
      {"serve.rejected_ratio", "ratio"},
      {"serve.first_seen_ms.p50", "ms"},
      {"serve.repeat_ms.p50", "ms"},
      {"common.trace_overhead_ratio", "ratio"},
      {"common.unattributed_share.pandas", "ratio"},
      {"common.unattributed_share.modin", "ratio"},
      {"common.unattributed_share.shard", "ratio"},
      {"common.unattributed_share.dask", "ratio"},
      {"common.samples", "count"},
  };
  for (const auto& [name, unit] : kLayer) m->Set(name, 0.0, unit);
}

void RunProbesInto(const Workspace& ws, const std::string& scratch,
                   Metrics* m) {
  Tracer::Global()->set_enabled(true);
  auto probes = RunProbes(ws, scratch);
  Tracer::Global()->set_enabled(false);
  Tracer::Global()->Clear();
  for (const auto& [name, value] : probes) {
    m->Set(name, value, "");  // unit already declared
  }
}

void BatchLayers(const Args& args, const BatchSpec& spec, Metrics* m,
                 Tally* tally) {
  Workspace ws;
  CheckStatus(BuildWorkspace(args.workdir + "/ws", spec.scale, args.seed,
                             true, kThreads, &ws),
              "setup");
  // Each cell runs untraced, traced, and (when its backend simulates
  // dispatch overhead) traced at task_overhead_us = 0, back to back, so
  // the differences are paired against drift in machine speed. Only the
  // traced run at the default overhead feeds the span and counter totals.
  TraceTotals totals;
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> sim_overhead;
  double plain_s = 0, traced_s = 0;
  int64_t cells = 0;
  auto judged = [&](const std::string& program, const Config& config,
                    bool trace) {
    Cell cell{program, config.name,
              RunCell(ws, program, config, spec.budget_bytes, trace)};
    Judge(cell, ws, spec, tally);
    Tracer::Global()->set_enabled(false);
    return cell.result.seconds;
  };
  for (const auto& config : spec.configs) {
    for (const auto& program : lafp::bench::ProgramNames()) {
      plain_s += judged(program, config, false);
      Tracer::Global()->Clear();
      auto before = ScrapeCounters();
      double traced = judged(program, config, true);
      for (const auto& [name, delta] : CounterDeltas(before, ScrapeCounters())) {
        counters[name] += delta;
      }
      totals.Add(SummarizeTrace(Tracer::Global()->Snapshot()));
      Tracer::Global()->Clear();
      traced_s += traced;
      ++cells;
      if (config.task_overhead_us > 0) {
        Config zero = config;
        zero.task_overhead_us = 0;
        sim_overhead[config.name] += traced - judged(program, zero, true);
        Tracer::Global()->Clear();
      }
    }
  }
  LayerMetricsFromTrace(totals, counters, m);
  m->Set("common.trace_overhead_ratio", traced_s / plain_s, "ratio");
  m->Set("common.samples", static_cast<double>(cells), "count");
  for (const auto& config : spec.configs) {
    if (config.task_overhead_us == 0) continue;
    m->Set(config.backend == lafp::exec::BackendKind::kDask
               ? "exec.dask.sim_overhead_s"
               : "exec.modin.sim_overhead_s",
           sim_overhead[config.name], "s");
  }
  RunProbesInto(ws, args.workdir, m);
  std::printf("%s traced: %lld cells, untraced %.3f s, traced %.3f s\n",
              args.workload.c_str(), static_cast<long long>(cells), plain_s,
              traced_s);
}

// ---------------------------------------------------------------------------
// serve_mixed

constexpr int kClients = 3;

struct Request {
  size_t program = 0;
  bool first_seen = false;
  std::string text;
  Reply reply;
  double done_at = 0;       // seconds since the window opened
  int64_t rss_growth = 0;   // resident bytes over the window's start
};

struct Window {
  std::vector<Request> requests;
  std::vector<double> healthz_ms;
  double seconds = 0;
};

lafp::serve::ServeOptions ServiceOptions() {
  lafp::serve::ServeOptions opts;
  opts.port = 0;
  opts.worker_threads = kThreads;
  opts.max_sessions = kThreads;  // >= clients: a 429 is a failure here
  opts.session_threads = kThreads;
  opts.default_backend = lafp::exec::BackendKind::kPandas;
  return opts;
}

/// A fresh service (empty result cache) under a closed loop of kClients
/// clients for `seconds`. Client c's request stream depends only on
/// (seed, c): it walks the ten programs in a seeded order, reshuffled
/// after every round. Odd rounds send new variants (a literal no client
/// has used in this window); even rounds repeat, for each program, a text
/// the client already sent. So half the requests are repeats. That share
/// is an assumption, not a measured traffic mix: it weights the cache's
/// insert and hit paths equally. The two paths are reported apart, so no
/// latency metric depends on the share.
Window RunServeWindow(const Workspace& ws, uint64_t seed, double seconds,
                      bool probe_healthz) {
  lafp::serve::QueryService service(ServiceOptions());
  CheckStatus(service.Start(), "serve start");
  const int port = service.port();
  const std::vector<std::string> programs = lafp::bench::ProgramNames();

  Window window;
  std::mutex mu;
  std::atomic<int> running{kClients};
  const int64_t rss_start = ResidentBytes();
  Timer clock;
  auto client = [&](int c) {
    std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(c) + 1);
    std::vector<std::vector<std::string>> sent(programs.size());
    std::vector<size_t> order(programs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    size_t next = order.size();
    int64_t visit = 0;
    while (clock.ElapsedSeconds() < seconds) {
      if (next == order.size()) {
        std::shuffle(order.begin(), order.end(), rng);
        next = 0;
        ++visit;
      }
      Request req;
      req.program = order[next++];
      auto& history = sent[req.program];
      if (visit % 2 == 0) {
        req.text = history[rng() % history.size()];
      } else {
        int64_t index = kClients * static_cast<int64_t>(history.size()) + c;
        req.text = VariantSource(ws, programs[req.program], seed, index);
        history.push_back(req.text);
        req.first_seen = true;
      }
      req.reply = HttpCall(port, "POST", "/run", req.text);
      req.done_at = clock.ElapsedSeconds();
      req.rss_growth = ResidentBytes() - rss_start;
      if (req.reply.status == 200) req.reply.body = ChecksumLines(req.reply.body);
      std::lock_guard<std::mutex> lock(mu);
      window.requests.push_back(std::move(req));
    }
    running.fetch_sub(1);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  if (probe_healthz) {
    // The fourth connection: GET /healthz round trips under the load.
    while (running.load() > 0) {
      Reply r = HttpCall(port, "GET", "/healthz", "");
      if (r.status == 200) window.healthz_ms.push_back(1e3 * r.total_s);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  for (auto& t : threads) t.join();
  window.seconds = clock.ElapsedSeconds();
  service.Stop();
  return window;
}

/// Check every 200 reply against the eager-Pandas reference of its text
/// (computed once per distinct text).
void VerifyWindow(const Window& window,
                  std::map<std::string, std::string>* references,
                  Tally* tally) {
  std::vector<std::string> missing;
  for (const auto& req : window.requests) {
    if (req.reply.status == 200 && references->count(req.text) == 0 &&
        std::find(missing.begin(), missing.end(), req.text) == missing.end()) {
      missing.push_back(req.text);
    }
  }
  std::vector<std::string> refs(missing.size());
  std::vector<lafp::Status> statuses(missing.size());
  ParallelFor(missing.size(), kThreads, [&](size_t i) {
    auto ref = ReferenceChecksums(missing[i]);
    if (ref.ok()) {
      refs[i] = ref.ValueOrDie();
    } else {
      statuses[i] = ref.status();
    }
  });
  for (size_t i = 0; i < missing.size(); ++i) {
    CheckStatus(statuses[i], "reference run");
    (*references)[missing[i]] = refs[i];
  }
  for (const auto& req : window.requests) {
    ++tally->attempted;
    if (req.reply.status != 200) {
      std::fprintf(stderr, "request failed with HTTP %d: %s\n",
                   req.reply.status, req.reply.body.c_str());
      ++tally->failed;
      // 429 (admission) and 5xx are failures, not wrong answers; a 4xx
      // other than 429 means the engine rejected a valid program.
      if (req.reply.status < 500 && req.reply.status != 429) {
        tally->correct = false;
      }
      continue;
    }
    if (req.reply.body != references->at(req.text)) {
      std::fprintf(stderr, "MISMATCH serve reply\n--- got\n%s--- reference\n%s",
                   req.reply.body.c_str(), references->at(req.text).c_str());
      tally->correct = false;
      ++tally->failed;
      continue;
    }
    ++tally->ok;
  }
}

/// Wall time the service takes to answer one request per program (ten
/// requests) at the window's completion rate.
double SuiteSeconds(const Window& window) {
  return 10.0 * window.seconds / static_cast<double>(window.requests.size());
}

std::vector<double> LatenciesMs(const Window& window, bool first_seen) {
  std::vector<double> ms;
  for (const auto& req : window.requests) {
    if (req.reply.status != 200 || req.first_seen != first_seen) continue;
    ms.push_back(1e3 * req.reply.total_s);
  }
  return ms;
}

void ServeEndToEnd(const Args& args, Metrics* m, Tally* tally) {
  Workspace ws;
  double setup_s = TimedSetups(kSetups, [&] {
    CheckStatus(BuildWorkspace(args.workdir + "/ws", 1, args.seed, false,
                               kThreads, &ws),
                "setup");
    lafp::serve::QueryService service(ServiceOptions());
    CheckStatus(service.Start(), "serve start");
    service.Stop();
  });
  Window window = RunServeWindow(ws, args.seed, args.seconds, false);
  std::map<std::string, std::string> references;
  VerifyWindow(window, &references, tally);

  std::vector<double> fresh = LatenciesMs(window, true);
  std::vector<double> ttfb;
  double peak_max = 0;
  std::vector<double> peak_by_program(lafp::bench::ProgramNames().size(), 0.0);
  for (const auto& req : window.requests) {
    if (req.reply.status != 200) continue;
    if (req.first_seen) ttfb.push_back(req.reply.ttfb_s);
    double mb = static_cast<double>(req.rss_growth) / 1e6;
    peak_max = std::max(peak_max, mb);
    peak_by_program[req.program] = std::max(peak_by_program[req.program], mb);
  }
  double peak_sum = 0;
  for (double mb : peak_by_program) peak_sum += mb;
  std::vector<double> repeat = LatenciesMs(window, false);
  std::printf("serve_mixed: %zu requests in %.3f s, %zu distinct texts "
              "verified\n  first-seen %zu: p50 %.3f p90 %.3f ms | repeat %zu: "
              "p25 %.3f p50 %.3f p75 %.3f p90 %.3f ms\n",
              window.requests.size(), window.seconds, references.size(),
              fresh.size(), Quantile(fresh, 0.5), Quantile(fresh, 0.9),
              repeat.size(), Quantile(repeat, 0.25), Quantile(repeat, 0.5),
              Quantile(repeat, 0.75), Quantile(repeat, 0.9));
  // suite_s, run_s.* and first_output_s.p50 are aliases here
  // (perfbench/README.md): the service replies only after the whole run.
  m->Set("setup_s", setup_s, "s");
  m->Set("suite_s", SuiteSeconds(window), "s");
  m->Set("run_s.p50", Quantile(fresh, 0.5) / 1e3, "s");
  m->Set("run_s.p90", Quantile(fresh, 0.9) / 1e3, "s");
  m->Set("first_output_s.p50", Median(ttfb), "s");
  m->Set("peak_mb.sum", peak_sum, "MB");
  m->Set("peak_mb.max", peak_max, "MB");
  m->Set("ok_ratio",
         static_cast<double>(tally->ok) / static_cast<double>(tally->attempted),
         "ratio");
  // Each path on its own: a percentile over both would fall between the
  // two modes and move with the repeat share.
  m->Set("latency_ms.p50", Quantile(fresh, 0.5), "ms");
  m->Set("latency_ms.p90", Quantile(fresh, 0.9), "ms");
  m->Set("latency_ms.repeat.p50", Quantile(repeat, 0.5), "ms");
  m->Set("throughput_rps", static_cast<double>(tally->ok) / window.seconds,
         "1/s");
}

void ServeLayers(const Args& args, Metrics* m, Tally* tally) {
  Workspace ws;
  CheckStatus(BuildWorkspace(args.workdir + "/ws", 1, args.seed, false,
                             kThreads, &ws),
              "setup");
  std::map<std::string, std::string> references;
  Window plain = RunServeWindow(ws, args.seed, args.seconds, true);

  Tracer::Global()->Clear();
  Tracer::Global()->set_enabled(true);
  auto before = ScrapeCounters();
  Window traced = RunServeWindow(ws, args.seed, args.seconds, true);
  auto counters = CounterDeltas(before, ScrapeCounters());
  Tracer::Global()->set_enabled(false);
  TraceTotals totals = SummarizeTrace(Tracer::Global()->Snapshot());
  Tracer::Global()->Clear();
  LayerMetricsFromTrace(totals, counters, m);
  VerifyWindow(plain, &references, tally);
  VerifyWindow(traced, &references, tally);

  int64_t rejected = 0;
  for (const auto& req : plain.requests) rejected += req.reply.status == 429;
  std::vector<double> fresh = LatenciesMs(plain, true);
  std::vector<double> repeat = LatenciesMs(plain, false);
  m->Set("serve.healthz_ms.p50", Median(plain.healthz_ms), "ms");
  m->Set("serve.rejected_ratio",
         static_cast<double>(rejected) / static_cast<double>(plain.requests.size()),
         "ratio");
  m->Set("serve.first_seen_ms.p50", Median(fresh), "ms");
  m->Set("serve.repeat_ms.p50", Median(repeat), "ms");
  m->Set("common.trace_overhead_ratio", SuiteSeconds(traced) / SuiteSeconds(plain),
         "ratio");
  m->Set("common.samples", static_cast<double>(plain.requests.size()), "count");
  RunProbesInto(ws, args.workdir, m);
  std::printf("serve_mixed traced: first-seen p50 %.3f ms (%zu) | repeat p50 "
              "%.3f ms (%zu) | healthz p50 %.3f ms (%zu)\n",
              Median(fresh), fresh.size(), Median(repeat), repeat.size(),
              Median(plain.healthz_ms), plain.healthz_ms.size());
}

// ---------------------------------------------------------------------------

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: lafp_perfbench --workload inmem_s|outofcore_l|"
               "serve_mixed --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--source-id ID]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--source-id") {
      args.source_id = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload != "inmem_s" && args.workload != "outofcore_l" &&
      args.workload != "serve_mixed") {
    return Usage("unknown workload");
  }
  if (args.workdir.empty()) return Usage("--workdir is required");
  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);
  PrintHost(args);
  const auto ticks_start = CpuTicks();

  Metrics metrics;
  Tally tally;
  if (args.trace) DeclareLayerMetrics(&metrics);
  if (args.workload == "serve_mixed") {
    if (args.trace) {
      ServeLayers(args, &metrics, &tally);
    } else {
      ServeEndToEnd(args, &metrics, &tally);
    }
  } else {
    BatchSpec spec = SpecFor(args.workload);
    if (args.trace) {
      BatchLayers(args, spec, &metrics, &tally);
    } else {
      BatchEndToEnd(args, spec, &metrics, &tally);
    }
  }
  std::filesystem::remove_all(args.workdir);

  // Slow phases of a shared host move every timing together; the steal
  // share over the run tells them apart from a slower build.
  const auto ticks_end = CpuTicks();
  const int64_t ticks = ticks_end.second - ticks_start.second;
  std::printf("host_load {\"steal_ratio\": %.4f}\n",
              ticks > 0 ? static_cast<double>(ticks_end.first -
                                              ticks_start.first) / ticks
                        : 0.0);
  metrics.Print();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              tally.correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return tally.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lafp_perfbench: %s\n", e.what());
    return 1;
  }
}
