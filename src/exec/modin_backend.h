#ifndef LAFP_EXEC_MODIN_BACKEND_H_
#define LAFP_EXEC_MODIN_BACKEND_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "dataframe/kernel_context.h"
#include "exec/backend.h"
#include "exec/partition.h"
#include "exec/partitioned_executor.h"

namespace lafp::exec {

/// Eager, partition-parallel engine modeled on Modin: data is split into
/// row partitions, map ops run on a thread pool, aggregations run in two
/// phases. All partitions stay in (tracked) memory — like Modin it scales
/// CPU, not memory — and every partition task pays a simulated dispatch
/// overhead (config.task_overhead_us), which is why it trails plain
/// Pandas at small sizes (paper Fig. 13).
///
/// Thread-safe for concurrent Execute calls (the DAG scheduler's
/// contract): the only shared state is the partition pool, whose queue is
/// mutex-protected, and each ParallelFor call synchronizes its own
/// completion — so two scheduler workers can run partitioned ops on the
/// same pool simultaneously. The pool is distinct from the scheduler's,
/// so a scheduler worker blocking in ParallelFor cannot starve it.
///
/// Intra-operator kernel parallelism shares that same partition pool (no
/// second pool, no oversubscription): ops that run on the concatenated
/// frame install a df::KernelContext over pool_ so their kernel loops go
/// morsel-parallel, while partitioned ops keep their parallelism at the
/// partition level — the kernel context is thread-local and does not
/// propagate into pool workers, so per-partition kernels stay serial
/// instead of forking nested morsel tasks onto the pool they run on.
///
/// The strategies live in PartitionedExecutor; this class is its
/// thread-pool placement.
class ModinBackend : public Backend, private Placement {
 public:
  ModinBackend(MemoryTracker* tracker, const BackendConfig& config);

  const char* name() const override { return "modin"; }
  bool preserves_row_order() const override { return true; }
  bool SupportsOp(const OpDesc& desc) const override;

  Result<BackendValue> Execute(
      const OpDesc& desc, const std::vector<BackendValue>& inputs) override;
  Result<EagerValue> Materialize(const BackendValue& value) override;
  Result<BackendValue> FromEager(const EagerValue& value) override;
  int64_t RowCount(const BackendValue& value) const override;

 private:
  /// One partition task's simulated scheduling cost.
  void PayOverhead() const;

  // Placement over the partition pool.
  Result<BackendValue> Scan(const OpDesc& desc) override;
  Result<BackendValue> Map(const OpDesc& desc,
                           const std::vector<BackendValue>& inputs) override;
  Result<std::vector<df::DataFrame>> Partials(
      const OpDesc& desc, const BackendValue& input) override;
  Result<BackendValue> Broadcast(const df::DataFrame& frame,
                                 const BackendValue& near) override;
  Result<df::DataFrame> Gather(const BackendValue& value) override;
  Result<BackendValue> Scatter(const df::DataFrame& frame) override;
  /// A combine result stays one partition: it is already in memory.
  Result<BackendValue> PlaceResult(df::DataFrame frame) override;
  Result<bool> Aligned(const BackendValue& a,
                       const BackendValue& b) const override;
  /// Whole-frame ops run on the calling (scheduler) thread under the
  /// kernel context, so kernel morsels borrow the partition pool.
  Result<EagerValue> RunWhole(const OpDesc& desc,
                              const std::vector<EagerValue>& inputs) override;

  /// Owned only when no shared pool was injected
  /// (BackendConfig::shared_pool); work_pool_ is what partition ops use.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* work_pool_;
  df::KernelContext kernel_ctx_;  // over work_pool_; default if knob is 0
  PartitionedExecutor executor_{this};
};

}  // namespace lafp::exec

#endif  // LAFP_EXEC_MODIN_BACKEND_H_
