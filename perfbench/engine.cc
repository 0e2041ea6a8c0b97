#include "perfbench/engine.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <thread>

#include "bench/programs.h"
#include "common/macros.h"
#include "common/memory_tracker.h"
#include "common/timer.h"
#include "common/trace.h"
#include "lazy/session.h"
#include "optimizer/passes.h"
#include "script/analyze.h"
#include "testing/datagen.h"

namespace perfbench {

using lafp::Result;
using lafp::Status;
using Clock = std::chrono::steady_clock;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  size_t count = std::min(n, static_cast<size_t>(std::max(threads, 1)));
  for (size_t t = 1; t < count; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
}

int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
}

std::string ChecksumLines(const std::string& output) {
  std::istringstream in(output);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("checksum ", 0) == 0) out += line + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Datasets and reference

Status BuildWorkspace(const std::string& dir, int scale, uint64_t seed,
                      bool with_reference, int threads, Workspace* ws) {
  ws->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir + "/data", ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  // Each dataset once, even if several programs read it.
  std::vector<std::string> datasets;
  for (const auto& program : lafp::bench::ProgramNames()) {
    for (const auto& name : lafp::testing::DatasetsForProgram(program)) {
      if (std::find(datasets.begin(), datasets.end(), name) == datasets.end()) {
        datasets.push_back(name);
      }
    }
  }
  std::vector<Status> statuses(datasets.size());
  std::vector<std::string> files(datasets.size());
  ParallelFor(datasets.size(), threads, [&](size_t i) {
    const std::string& name = datasets[i];
    int64_t rows = lafp::testing::BaseRows(name);
    // Lookup tables stay small at every scale (as in the paper's sizes).
    if (name != "schools" && name != "movies") rows *= scale;
    // A distinct generator seed per dataset, derived from the run's seed.
    auto ds = lafp::testing::Generate(name, dir + "/data", rows,
                                      seed * 131 + i);
    if (!ds.ok()) {
      statuses[i] = ds.status();
      return;
    }
    files[i] = ds.ValueOrDie().path;
  });
  for (const auto& st : statuses) LAFP_RETURN_NOT_OK(st);

  ws->metastore = std::make_unique<lafp::meta::MetaStore>(dir + "/metastore");
  ParallelFor(files.size(), threads, [&](size_t i) {
    auto meta = ws->metastore->GetOrCompute(files[i]);
    if (!meta.ok()) statuses[i] = meta.status();
  });
  for (const auto& st : statuses) LAFP_RETURN_NOT_OK(st);

  ws->paths.clear();
  ws->sources.clear();
  for (const auto& program : lafp::bench::ProgramNames()) {
    for (const auto& name : lafp::testing::DatasetsForProgram(program)) {
      size_t i = std::find(datasets.begin(), datasets.end(), name) -
                 datasets.begin();
      ws->paths[program][name] = files[i];
    }
    LAFP_ASSIGN_OR_RETURN(ws->sources[program],
                          lafp::bench::ProgramSource(program,
                                                     ws->paths[program]));
  }

  ws->reference.clear();
  if (!with_reference) return Status::OK();
  std::vector<std::string> programs = lafp::bench::ProgramNames();
  std::vector<std::string> refs(programs.size());
  statuses.assign(programs.size(), Status::OK());
  ParallelFor(programs.size(), threads, [&](size_t i) {
    auto ref = ReferenceChecksums(ws->sources.at(programs[i]));
    if (ref.ok()) {
      refs[i] = ref.ValueOrDie();
    } else {
      statuses[i] = ref.status();
    }
  });
  for (size_t i = 0; i < programs.size(); ++i) {
    if (!statuses[i].ok()) {
      return Status::ExecutionError("reference run of " + programs[i] +
                                    " failed: " + statuses[i].ToString());
    }
    ws->reference[programs[i]] = refs[i];
  }
  return Status::OK();
}

Result<std::string> ReferenceChecksums(const std::string& source) {
  lafp::MemoryTracker tracker(0);
  std::stringstream output;
  lafp::lazy::SessionOptions opts;
  opts.backend = lafp::exec::BackendKind::kPandas;
  opts.tracker = &tracker;
  opts.output = &output;
  opts.mode = lafp::lazy::ExecutionMode::kEager;
  opts.lazy_print = false;
  opts.exec.num_threads = 1;
  lafp::lazy::Session session(opts);
  lafp::script::RunOptions run_opts;
  run_opts.analyze = false;
  LAFP_RETURN_NOT_OK(lafp::script::RunProgram(source, &session, run_opts));
  std::string lines = ChecksumLines(output.str());
  if (lines.empty()) return Status::Invalid("program printed no checksum");
  return lines;
}

// ---------------------------------------------------------------------------
// One program run

Config LPandas() { return {"LPandas", lafp::exec::BackendKind::kPandas, 0, 0}; }
Config LModin() { return {"LModin", lafp::exec::BackendKind::kModin, 0, 120}; }
Config LShard() { return {"LShard", lafp::exec::BackendKind::kShard, 2, 0}; }
Config LDask() { return {"LDask", lafp::exec::BackendKind::kDask, 0, 250}; }

namespace {

/// Output sink that keeps the text and stamps the first byte written
/// (SessionOptions::output; unbuffered, so every write reaches here).
class StampedBuf : public std::streambuf {
 public:
  std::string text;
  bool stamped = false;
  Clock::time_point first;

 protected:
  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof()) return traits_type::not_eof(ch);
    Stamp();
    text.push_back(static_cast<char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (n > 0) Stamp();
    text.append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  void Stamp() {
    if (!stamped) {
      stamped = true;
      first = Clock::now();
    }
  }
};

}  // namespace

RunResult RunCell(const Workspace& ws, const std::string& program,
                  const Config& config, int64_t budget_bytes, bool trace) {
  RunResult result;
  std::optional<lafp::trace::Span> bench_span;
  if (trace) bench_span.emplace("bench:" + program + "/" + config.name, "bench");

  lafp::MemoryTracker tracker(budget_bytes);
  StampedBuf buf;
  std::ostream output(&buf);
  lafp::lazy::SessionOptions opts;
  opts.backend = config.backend;
  opts.tracker = &tracker;
  opts.output = &output;
  opts.mode = lafp::lazy::ExecutionMode::kLazy;
  opts.lazy_print = true;
  opts.backend_config.num_threads = 4;
  opts.backend_config.partition_rows = 8192;
  opts.backend_config.task_overhead_us = config.task_overhead_us;
  opts.backend_config.shards = config.shards;
  opts.backend_config.spill_dir = ws.dir + "/spill";
  opts.backend_config.spill_fallback_dir = ws.dir + "/spill_alt";
  opts.exec.trace = trace;
  opts.cache.enabled = false;

  lafp::script::RunOptions run_opts;
  run_opts.analyze = true;
  run_opts.analyze_options.rewrite.metastore = ws.metastore.get();

  Clock::time_point start = Clock::now();
  Clock::time_point run_start;
  {
    lafp::lazy::Session session(opts);
    lafp::opt::InstallDefaultOptimizer(&session);
    run_start = Clock::now();
    result.status =
        lafp::script::RunProgram(ws.sources.at(program), &session, run_opts);
  }
  Clock::time_point end = Clock::now();
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.first_output_s = std::chrono::duration<double>(
                              (buf.stamped ? buf.first : end) - run_start)
                              .count();
  result.peak_bytes = tracker.peak();
  result.checksums = ChecksumLines(buf.text);
  return result;
}

// ---------------------------------------------------------------------------
// HTTP client

Reply HttpCall(int port, const std::string& method, const std::string& target,
               const std::string& body) {
  Reply reply;
  Clock::time_point start = Clock::now();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t r = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (r <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<size_t>(r);
  }
  Clock::time_point sent_at = Clock::now();
  std::string raw;
  char chunk[16384];
  while (true) {
    ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    if (raw.empty()) {
      reply.ttfb_s =
          std::chrono::duration<double>(Clock::now() - sent_at).count();
    }
    raw.append(chunk, static_cast<size_t>(r));
  }
  ::close(fd);
  reply.total_s = std::chrono::duration<double>(Clock::now() - start).count();
  size_t head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

// ---------------------------------------------------------------------------
// serve_mixed request texts

namespace {

/// One literal of each program that a variant replaces: `pattern` in the
/// source becomes `replacement` with {x} set to a value in [lo, hi).
struct LiteralSlot {
  const char* program;
  const char* pattern;
  const char* replacement;
  double lo;
  double hi;
};

const LiteralSlot kSlots[] = {
    {"taxi", "df.fare_amount > 0", "df.fare_amount > {x}", 0, 40},
    {"movie", "ratings.rating >= 3.0", "ratings.rating >= {x}", 0.5, 5},
    {"startup", "alive.funding_total > 50.0", "alive.funding_total > {x}", 0,
     400},
    {"emp", "df.age > 50", "df.age > {x}", 21, 65},
    {"stu", "df.total > 150.0", "df.total > {x}", 50, 190},
    {"retail", "df.revenue > avg", "df.revenue > avg * {x}", 0.5, 1.5},
    {"weather", "df.rainfall > 20.0", "df.rainfall > {x}", 0, 110},
    {"flights", "df.arr_delay > 0", "df.arr_delay > {x}", -20, 170},
    {"sensor", "df.fillna(0)", "df.fillna({x})", -10, 110},
    {"sales", "df.amount > 50000.0", "df.amount > {x}", 100, 89000},
};

}  // namespace

std::string VariantSource(const Workspace& ws, const std::string& program,
                          uint64_t seed, int64_t index) {
  std::string source = ws.sources.at(program);
  for (const auto& slot : kSlots) {
    if (program != slot.program) continue;
    // Values on a 0.01 grid; index -> grid point is a bijection on the
    // first `steps` indexes (7919 is prime), offset by the seed.
    int64_t steps = static_cast<int64_t>(std::llround((slot.hi - slot.lo) * 100));
    int64_t point = (index * 7919 + static_cast<int64_t>(seed % 1000003)) % steps;
    char value[32];
    std::snprintf(value, sizeof(value), "%.2f", slot.lo + point / 100.0);
    std::string replacement = slot.replacement;
    replacement.replace(replacement.find("{x}"), 3, value);
    size_t pos = source.find(slot.pattern);
    if (pos != std::string::npos) {
      source.replace(pos, std::string(slot.pattern).size(), replacement);
    }
  }
  return source;
}

}  // namespace perfbench
