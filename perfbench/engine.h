// Driving the LaFP engine from outside: datasets, the eager-Pandas
// reference, one program run under one configuration, and an HTTP client
// for lafp_serve's QueryService. Everything here goes through the
// engine's public headers only.
#ifndef LAFP_PERFBENCH_ENGINE_H_
#define LAFP_PERFBENCH_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/backend.h"
#include "meta/metadata.h"

namespace perfbench {

/// Linear-interpolated quantile (numpy's default); 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Run fn(0..n-1) on at most `threads` threads.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn);

/// Resident set size of this process, in bytes.
int64_t ResidentBytes();

/// The "checksum ..." lines of a program's output: the §5.2 regression
/// payload every run is compared on.
std::string ChecksumLines(const std::string& output);

/// Generated inputs of one workload: the datasets of the ten programs,
/// their metastore, and (optionally) the reference checksums.
struct Workspace {
  std::string dir;
  /// program -> dataset name -> CSV path.
  std::map<std::string, std::map<std::string, std::string>> paths;
  /// program -> PdScript source with the dataset paths filled in.
  std::map<std::string, std::string> sources;
  std::unique_ptr<lafp::meta::MetaStore> metastore;
  /// program -> reference checksum lines.
  std::map<std::string, std::string> reference;
};

/// Generate every dataset of the ten programs at `scale` (1 = S, 9 = L)
/// from `seed` into `dir`, write the metastore sidecars, and, when
/// `with_reference`, compute the reference checksums. Uses at most
/// `threads` threads.
lafp::Status BuildWorkspace(const std::string& dir, int scale, uint64_t seed,
                            bool with_reference, int threads, Workspace* ws);

/// Plain eager Pandas with no memory budget: the reference a program's
/// checksum lines must match byte for byte.
lafp::Result<std::string> ReferenceChecksums(const std::string& source);

/// One LaFP configuration of the paper's evaluation (lazy runtime, lazy
/// print, JIT rewrites with metadata, default optimizer, no result cache).
struct Config {
  std::string name;  // "LPandas", "LModin", "LShard", "LDask"
  lafp::exec::BackendKind backend = lafp::exec::BackendKind::kPandas;
  int shards = 0;
  int64_t task_overhead_us = 0;
};
Config LPandas();
Config LModin();   // 4 threads, 120 us simulated dispatch per task
Config LShard();   // 2 forked workers
Config LDask();    // 250 us simulated scheduling per task

struct RunResult {
  lafp::Status status;
  double seconds = 0.0;         // session construction to program end
  double first_output_s = 0.0;  // RunProgram start to first output byte
  int64_t peak_bytes = 0;       // MemoryTracker::peak()
  std::string checksums;
};

/// Run `program` of `ws` under `config` with a MemoryTracker of
/// `budget_bytes` (Dask spill files go under ws.dir). `trace` switches
/// the tracer on for the session and wraps the call in a
/// bench:<program>/<config> span.
RunResult RunCell(const Workspace& ws, const std::string& program,
                  const Config& config, int64_t budget_bytes, bool trace);

/// One HTTP exchange with the query service over loopback.
struct Reply {
  int status = -1;     // -1 = transport failure
  double ttfb_s = 0;   // request sent -> first response byte
  double total_s = 0;  // connect -> response complete
  std::string body;
};
Reply HttpCall(int port, const std::string& method, const std::string& target,
               const std::string& body);

/// Request text of one serve_mixed variant: `program`'s source with one
/// filter literal replaced by the `index`-th value of the program's
/// literal sequence for `seed` (distinct indexes give distinct texts).
std::string VariantSource(const Workspace& ws, const std::string& program,
                          uint64_t seed, int64_t index);

}  // namespace perfbench

#endif  // LAFP_PERFBENCH_ENGINE_H_
