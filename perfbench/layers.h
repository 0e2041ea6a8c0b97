// Per-layer numbers measured from outside the engine: span self times
// read from trace::Tracer snapshots, and probes that time calls into one
// module's public functions on the workload's own datasets.
#ifndef LAFP_PERFBENCH_LAYERS_H_
#define LAFP_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "perfbench/engine.h"

namespace perfbench {

/// Totals over one trace snapshot. Self time of a span is its duration
/// minus the union of its children's intervals (clipped to the span):
/// partition and worker children overlap, so summing their durations
/// would drive the parent's self time negative.
struct TraceTotals {
  std::map<std::string, int64_t> self_us;  // span name -> summed self time
  std::map<std::string, int64_t> count;    // span name -> spans
  /// Plan nodes removed by the optimizer: sum over pass spans of the
  /// nodes_before - nodes_after arguments (cache-splice excluded).
  int64_t nodes_pruned = 0;
  /// Nodes executed: sum of the round spans' nodes_executed arguments
  /// (the ExecutionReport of every round).
  int64_t nodes_executed = 0;
  /// Backend name ("pandas", ...) -> self time of its session spans plus
  /// the round and node spans under them: time no layer below claims.
  std::map<std::string, int64_t> unattributed_us;
  /// Backend name -> summed duration of its session spans.
  std::map<std::string, int64_t> session_us;

  /// Accumulate another snapshot's totals.
  void Add(const TraceTotals& other);
  double SelfSeconds(const std::string& name) const;
  /// Summed self time of every span whose name starts with `prefix`.
  double SelfSecondsWithPrefix(const std::string& prefix) const;
};

TraceTotals SummarizeTrace(const std::vector<lafp::trace::Event>& events);

/// Counter values of the global metrics registry.
std::map<std::string, int64_t> ScrapeCounters();

/// Module probes on `ws`'s datasets (taxi for IO, kernels, spill and wire;
/// ratings x movies for merge; flights for sort; all ten sources for the
/// script front-end). Each probe call runs inside a bench:probe:* span.
/// Returns per-layer metric name -> value.
std::map<std::string, double> RunProbes(const Workspace& ws,
                                        const std::string& scratch_dir);

}  // namespace perfbench

#endif  // LAFP_PERFBENCH_LAYERS_H_
