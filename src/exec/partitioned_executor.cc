#include "exec/partitioned_executor.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "exec/agg_twophase.h"
#include "io/columnar.h"
#include "io/csv.h"

namespace lafp::exec {

Result<BackendValue> PartitionedExecutor::Execute(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  switch (desc.kind) {
    case OpKind::kReadCsv:
    case OpKind::kReadLfc:
      return placement_->Scan(desc);
    case OpKind::kGroupByAgg: {
      GroupByCombiner combiner(desc.columns, desc.aggs);
      // nunique does not decompose into partials; gather and run whole.
      if (!combiner.supported()) return ExecuteWhole(desc, inputs);
      LAFP_ASSIGN_OR_RETURN(std::vector<df::DataFrame> partials,
                            placement_->Partials(desc, inputs[0]));
      for (auto& partial : partials) {
        LAFP_RETURN_NOT_OK(combiner.AddPartial(std::move(partial)));
      }
      LAFP_ASSIGN_OR_RETURN(df::DataFrame result, combiner.Finish());
      return placement_->PlaceResult(std::move(result));
    }
    case OpKind::kReduce: {
      LAFP_ASSIGN_OR_RETURN(std::vector<df::DataFrame> partials,
                            placement_->Partials(desc, inputs[0]));
      ReduceCombiner combiner(desc.agg_func);
      for (const auto& partial : partials) {
        LAFP_RETURN_NOT_OK(combiner.AddPartial(partial));
      }
      LAFP_ASSIGN_OR_RETURN(df::Scalar out, combiner.Finish());
      return BackendValue::FromScalar(std::move(out));
    }
    case OpKind::kLen: {
      const int64_t rows = placement_->RowCount(inputs[0]);
      if (inputs[0].is_scalar || rows < 0) return ExecuteWhole(desc, inputs);
      return BackendValue::FromScalar(df::Scalar::Int(rows));
    }
    case OpKind::kMerge: {
      if (inputs[1].is_scalar) {
        return Status::Invalid("merge right side must be a frame");
      }
      // Broadcast join: the right side is gathered whole, placed once next
      // to the left partitions, and joined against each of them.
      LAFP_ASSIGN_OR_RETURN(df::DataFrame right,
                            placement_->Gather(inputs[1]));
      LAFP_ASSIGN_OR_RETURN(BackendValue copies,
                            placement_->Broadcast(right, inputs[0]));
      return placement_->Map(desc, {inputs[0], copies});
    }
    default:
      break;
  }
  if (!IsMapOp(desc.kind)) return ExecuteWhole(desc, inputs);
  for (size_t k = 1; k < inputs.size(); ++k) {
    if (inputs[k].is_scalar) continue;
    LAFP_ASSIGN_OR_RETURN(bool aligned,
                          placement_->Aligned(inputs[0], inputs[k]));
    // Misaligned partitioning (e.g. one side re-placed after a fallback):
    // gather-and-run is the correctness path.
    if (!aligned) return ExecuteWhole(desc, inputs);
  }
  return placement_->Map(desc, inputs);
}

Result<BackendValue> PartitionedExecutor::ExecuteWhole(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  // Sorts, dedup, concat, head, describe, ...: the engine's own kernel on
  // whole frames keeps the fallback semantics bit for bit.
  std::vector<EagerValue> eager_inputs;
  for (const auto& in : inputs) {
    LAFP_ASSIGN_OR_RETURN(EagerValue v, Materialize(in));
    eager_inputs.push_back(std::move(v));
  }
  LAFP_ASSIGN_OR_RETURN(EagerValue out,
                        placement_->RunWhole(desc, eager_inputs));
  return FromEager(out);
}

Result<EagerValue> PartitionedExecutor::Materialize(const BackendValue& value) {
  if (value.is_scalar) return EagerValue::FromScalar(value.scalar);
  LAFP_ASSIGN_OR_RETURN(df::DataFrame frame, placement_->Gather(value));
  return EagerValue::Frame(std::move(frame));
}

Result<BackendValue> PartitionedExecutor::FromEager(const EagerValue& value) {
  if (value.is_scalar) return BackendValue::FromScalar(value.scalar);
  return placement_->Scatter(value.frame);
}

Result<df::DataFrame> PartialOf(const OpDesc& desc,
                                const df::DataFrame& partition) {
  switch (desc.kind) {
    case OpKind::kGroupByAgg: {
      GroupByCombiner combiner(desc.columns, desc.aggs);
      return combiner.PartialAggregate(partition);
    }
    case OpKind::kReduce:
      return ReduceCombiner(desc.agg_func).PartialReduce(partition);
    default:
      return Status::Invalid(std::string("no partial form for op ") +
                             OpKindName(desc.kind));
  }
}

Result<uint64_t> ScanPartitions(
    const OpDesc& desc, size_t partition_rows, MemoryTracker* tracker,
    const std::function<bool(uint64_t)>& owns,
    const std::function<Status(uint64_t, df::DataFrame)>& emit) {
  uint64_t total = 0;
  if (desc.kind == OpKind::kReadCsv) {
    LAFP_ASSIGN_OR_RETURN(
        auto reader,
        io::CsvChunkReader::Open(desc.path, desc.csv_options, tracker));
    while (true) {
      LAFP_ASSIGN_OR_RETURN(auto chunk, reader->NextChunk(partition_rows));
      if (!chunk.has_value()) break;
      if (owns(total)) LAFP_RETURN_NOT_OK(emit(total, std::move(*chunk)));
      ++total;
    }
    if (total == 0 && owns(0)) {
      LAFP_ASSIGN_OR_RETURN(df::DataFrame empty,
                            io::ReadCsv(desc.path, desc.csv_options, tracker));
      LAFP_RETURN_NOT_OK(emit(0, std::move(empty)));
    }
  } else if (desc.kind == OpKind::kReadLfc) {
    LAFP_ASSIGN_OR_RETURN(auto reader, io::LfcReader::Open(desc.path, tracker));
    const auto& o = desc.lfc_options;
    LAFP_ASSIGN_OR_RETURN(std::vector<size_t> sel,
                          reader->SelectColumns(o.usecols));
    const bool pruning = o.prune_enabled && !o.prune.empty();
    uint64_t remaining =
        o.nrows == 0 ? std::numeric_limits<uint64_t>::max() : o.nrows;
    for (size_t chunk = 0; chunk < reader->num_chunks(); ++chunk) {
      if (remaining == 0) break;
      const uint64_t take =
          std::min<uint64_t>(reader->chunk_rows(chunk), remaining);
      remaining -= take;
      if (pruning && !reader->ChunkMayMatch(chunk, o.prune)) continue;
      if (owns(total)) {
        LAFP_ASSIGN_OR_RETURN(
            df::DataFrame part,
            reader->ReadChunk(chunk, sel, static_cast<size_t>(take)));
        LAFP_RETURN_NOT_OK(emit(total, std::move(part)));
      }
      ++total;
    }
    if (total == 0 && owns(0)) {
      LAFP_ASSIGN_OR_RETURN(df::DataFrame empty, reader->EmptyFrame(sel));
      LAFP_RETURN_NOT_OK(emit(0, std::move(empty)));
    }
  } else {
    return Status::Invalid("partitioned scan of a non-scan op");
  }
  return std::max<uint64_t>(total, 1);
}

}  // namespace lafp::exec
