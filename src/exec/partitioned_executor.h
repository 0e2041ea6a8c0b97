#ifndef LAFP_EXEC_PARTITIONED_EXECUTOR_H_
#define LAFP_EXEC_PARTITIONED_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/backend.h"

namespace lafp::exec {

/// Where the partitions of an eager partitioned frame live and how work
/// reaches them: the Modin backend places them in local memory and runs
/// on a thread pool, the shard backend places them in forked workers.
/// Frames are the placement's own BackendValue handles.
class Placement {
 public:
  virtual ~Placement() = default;

  /// kReadCsv / kReadLfc, partitioned as ScanPartitions numbers them.
  virtual Result<BackendValue> Scan(const OpDesc& desc) = 0;
  /// Runs `desc` on each partition i of inputs[0]; a later input gives
  /// its partition i (aligned frame), its whole frame (Broadcast handle)
  /// or itself (scalar).
  virtual Result<BackendValue> Map(const OpDesc& desc,
                                   const std::vector<BackendValue>& inputs) = 0;
  /// PartialOf(desc, partition) per partition, in global partition order.
  virtual Result<std::vector<df::DataFrame>> Partials(
      const OpDesc& desc, const BackendValue& input) = 0;
  /// Places a copy of `frame` next to every partition of `near`.
  virtual Result<BackendValue> Broadcast(const df::DataFrame& frame,
                                         const BackendValue& near) = 0;
  /// All partitions concatenated in order (a single one passes through).
  virtual Result<df::DataFrame> Gather(const BackendValue& value) = 0;
  /// Splits a whole frame into partition_rows chunks, placed like a scan.
  virtual Result<BackendValue> Scatter(const df::DataFrame& frame) = 0;
  /// Places a two-phase combine result, which is whole at the caller.
  virtual Result<BackendValue> PlaceResult(df::DataFrame frame) = 0;
  /// Cached row count; -1 for a handle of another placement.
  virtual int64_t RowCount(const BackendValue& value) const = 0;
  /// True when `a` and `b` pair up partition for partition.
  virtual Result<bool> Aligned(const BackendValue& a,
                               const BackendValue& b) const = 0;
  /// Runs an eager kernel over whole (gathered) frames.
  virtual Result<EagerValue> RunWhole(const OpDesc& desc,
                                      const std::vector<EagerValue>& inputs) = 0;
};

/// The partitioned strategy set, written once over a Placement (the Modin
/// dataframe algebra: operators over the partition grid, the engine
/// underneath pluggable). Map ops run partition-local on aligned inputs;
/// group-by and reduce fold per-partition partials in global partition
/// order, so output bytes never depend on placement, threads or shard
/// count; len reads row counts; merge broadcasts its right side; nunique
/// group-bys, misaligned maps and every other op gather, run the eager
/// kernel and re-scatter.
class PartitionedExecutor {
 public:
  explicit PartitionedExecutor(Placement* placement)
      : placement_(placement) {}

  Result<BackendValue> Execute(const OpDesc& desc,
                               const std::vector<BackendValue>& inputs);
  Result<EagerValue> Materialize(const BackendValue& value);
  Result<BackendValue> FromEager(const EagerValue& value);

 private:
  Result<BackendValue> ExecuteWhole(const OpDesc& desc,
                                    const std::vector<BackendValue>& inputs);

  Placement* placement_;
};

/// Phase one of a two-phase kGroupByAgg or kReduce on one partition, run
/// wherever the partition lives.
Result<df::DataFrame> PartialOf(const OpDesc& desc,
                                const df::DataFrame& partition);

/// The partitioned scan loop of every placement: CSV chunks of
/// `partition_rows`, or one partition per LFC chunk that survives zone
/// pruning (pruned chunks still consume the nrows quota), numbered in
/// source order. Partitions with owns(index) go to emit(index, frame);
/// unowned LFC chunks are never decoded. An empty source yields one empty
/// partition 0 so the schema survives. Returns the partition count.
Result<uint64_t> ScanPartitions(
    const OpDesc& desc, size_t partition_rows, MemoryTracker* tracker,
    const std::function<bool(uint64_t)>& owns,
    const std::function<Status(uint64_t, df::DataFrame)>& emit);

}  // namespace lafp::exec

#endif  // LAFP_EXEC_PARTITIONED_EXECUTOR_H_
