#include "exec/modin_backend.h"

#include <chrono>
#include <thread>

#include "common/macros.h"
#include "common/trace.h"

namespace lafp::exec {

namespace {

/// Partitioned frame wrapper for Modin values. A broadcast frame holds one
/// whole frame that every partition of a Map sees (Placement::Broadcast).
class ModinFrame : public BackendFrame {
 public:
  ModinFrame(PartitionedFrame parts, bool broadcast)
      : parts_(std::move(parts)), broadcast_(broadcast) {}
  const PartitionedFrame& parts() const { return parts_; }
  bool broadcast() const { return broadcast_; }

 private:
  PartitionedFrame parts_;
  bool broadcast_;
};

Result<const ModinFrame*> FrameOf(const BackendValue& value) {
  auto* wrapped = dynamic_cast<ModinFrame*>(value.frame.get());
  if (wrapped == nullptr) {
    return Status::Invalid("foreign frame handle passed to modin backend");
  }
  return wrapped;
}

BackendValue WrapParts(PartitionedFrame parts, bool broadcast = false) {
  return BackendValue::Frame(
      std::make_shared<ModinFrame>(std::move(parts), broadcast));
}

BackendValue WrapWhole(df::DataFrame frame, bool broadcast = false) {
  PartitionedFrame parts;
  parts.Add(std::move(frame));
  return WrapParts(std::move(parts), broadcast);
}

/// Partition fan-out with cross-thread kernel attribution. Each worker
/// runs `body(i)` with (a) the launcher's span installed as trace context
/// — so the per-partition span, and any kernel spans under it, attribute
/// to the owning scheduler node — and (b) a local KernelCounters sink
/// whose totals are merged back into the launcher's active sink after the
/// join. This is what makes NodeStats::kernel_micros/morsels include work
/// done on partition-pool threads.
template <typename Body>
Status RunPartitions(ThreadPool* pool, size_t np, const char* what,
                     Body&& body) {
  const uint64_t parent = trace::Tracer::CurrentSpanId();
  df::SharedKernelCounters shared;
  Status status = ParallelForStatus(
      pool, static_cast<int>(np), [&](int i) -> Status {
        trace::SpanContextScope ctx(parent);
        trace::Span span("partition", "task");
        if (span.active()) {
          span.AddArg("op", what);
          span.AddArg("partition", i);
        }
        df::KernelCounters local;
        Status s;
        {
          df::KernelCountersScope counters(&local);
          s = body(i);
        }
        shared.Add(local);
        return s;
      });
  df::MergeIntoCurrentSink(shared.Snapshot());
  return status;
}

}  // namespace

ModinBackend::ModinBackend(MemoryTracker* tracker,
                           const BackendConfig& config)
    : Backend(tracker, config),
      owned_pool_(config.shared_pool == nullptr
                      ? std::make_unique<ThreadPool>(config.num_threads)
                      : nullptr),
      work_pool_(config.shared_pool != nullptr ? config.shared_pool
                                               : owned_pool_.get()) {
  if (config_.intra_op_threads >= 1) {
    kernel_ctx_ = df::KernelContext(work_pool_, config_.intra_op_threads,
                                    config_.morsel_rows);
  }
}

void ModinBackend::PayOverhead() const {
  if (config_.task_overhead_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.task_overhead_us));
  }
}

bool ModinBackend::SupportsOp(const OpDesc& desc) const {
  return desc.kind != OpKind::kPrint;
}

Result<BackendValue> ModinBackend::Execute(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  trace::Span span("modin:execute", "backend");
  if (span.active()) span.AddArg("op", desc.ToString());
  return executor_.Execute(desc, inputs);
}

Result<EagerValue> ModinBackend::Materialize(const BackendValue& value) {
  return executor_.Materialize(value);
}

Result<BackendValue> ModinBackend::FromEager(const EagerValue& value) {
  return executor_.FromEager(value);
}

int64_t ModinBackend::RowCount(const BackendValue& value) const {
  if (value.is_scalar) return 1;
  auto* wrapped = dynamic_cast<ModinFrame*>(value.frame.get());
  if (wrapped == nullptr) return -1;
  return static_cast<int64_t>(wrapped->parts().num_rows());
}

Result<BackendValue> ModinBackend::Scan(const OpDesc& desc) {
  // Partitioned read: chunked, but eager (all partitions in memory).
  PartitionedFrame parts;
  LAFP_RETURN_NOT_OK(
      ScanPartitions(
          desc, config_.partition_rows, tracker_,
          [](uint64_t) { return true; },
          [&](uint64_t, df::DataFrame part) {
            PayOverhead();
            parts.Add(std::move(part));
            return Status::OK();
          })
          .status());
  return WrapParts(std::move(parts));
}

Result<BackendValue> ModinBackend::Map(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  std::vector<const ModinFrame*> frames(inputs.size(), nullptr);
  for (size_t k = 0; k < inputs.size(); ++k) {
    if (k > 0 && inputs[k].is_scalar) continue;
    LAFP_ASSIGN_OR_RETURN(frames[k], FrameOf(inputs[k]));
  }
  const size_t np = frames[0]->parts().num_partitions();
  std::vector<df::DataFrame> results(np);
  LAFP_RETURN_NOT_OK(RunPartitions(
      work_pool_, np, desc.kind == OpKind::kMerge ? "merge" : "map",
      [&](int i) -> Status {
        PayOverhead();
        std::vector<EagerValue> args;
        for (size_t k = 0; k < inputs.size(); ++k) {
          if (frames[k] == nullptr) {
            args.push_back(EagerValue::FromScalar(inputs[k].scalar));
            continue;
          }
          const size_t p = frames[k]->broadcast() ? 0 : static_cast<size_t>(i);
          LAFP_ASSIGN_OR_RETURN(df::DataFrame part,
                                frames[k]->parts().partition(p, tracker_));
          args.push_back(EagerValue::Frame(std::move(part)));
        }
        LAFP_ASSIGN_OR_RETURN(EagerValue out,
                              ExecuteEagerOp(desc, args, tracker_));
        results[i] = std::move(out.frame);
        return Status::OK();
      }));
  PartitionedFrame out;
  for (auto& r : results) out.Add(std::move(r));
  return WrapParts(std::move(out));
}

Result<std::vector<df::DataFrame>> ModinBackend::Partials(
    const OpDesc& desc, const BackendValue& input) {
  LAFP_ASSIGN_OR_RETURN(const ModinFrame* frame, FrameOf(input));
  const PartitionedFrame& parts = frame->parts();
  std::vector<df::DataFrame> partials(parts.num_partitions());
  LAFP_RETURN_NOT_OK(RunPartitions(
      work_pool_, partials.size(),
      desc.kind == OpKind::kGroupByAgg ? "groupby" : "reduce",
      [&](int i) -> Status {
        PayOverhead();
        LAFP_ASSIGN_OR_RETURN(df::DataFrame part,
                              parts.partition(i, tracker_));
        LAFP_ASSIGN_OR_RETURN(partials[i], PartialOf(desc, part));
        return Status::OK();
      }));
  return partials;
}

Result<BackendValue> ModinBackend::Broadcast(const df::DataFrame& frame,
                                             const BackendValue& near) {
  (void)near;  // every pool thread already shares this memory
  return WrapWhole(frame, /*broadcast=*/true);
}

Result<df::DataFrame> ModinBackend::Gather(const BackendValue& value) {
  LAFP_ASSIGN_OR_RETURN(const ModinFrame* frame, FrameOf(value));
  return frame->parts().ToEager(tracker_);
}

Result<BackendValue> ModinBackend::Scatter(const df::DataFrame& frame) {
  LAFP_ASSIGN_OR_RETURN(
      PartitionedFrame parts,
      PartitionedFrame::FromEager(frame, config_.partition_rows));
  return WrapParts(std::move(parts));
}

Result<BackendValue> ModinBackend::PlaceResult(df::DataFrame frame) {
  return WrapWhole(std::move(frame));
}

Result<bool> ModinBackend::Aligned(const BackendValue& a,
                                   const BackendValue& b) const {
  LAFP_ASSIGN_OR_RETURN(const ModinFrame* fa, FrameOf(a));
  LAFP_ASSIGN_OR_RETURN(const ModinFrame* fb, FrameOf(b));
  return !fb->broadcast() &&
         fa->parts().num_partitions() == fb->parts().num_partitions();
}

Result<EagerValue> ModinBackend::RunWhole(
    const OpDesc& desc, const std::vector<EagerValue>& inputs) {
  // The pool's workers never see this thread-local context, so kernel
  // morsels can borrow the partition pool without nesting.
  df::KernelScope kernel_scope(&kernel_ctx_);
  PayOverhead();
  return ExecuteEagerOp(desc, inputs, tracker_);
}

}  // namespace lafp::exec
