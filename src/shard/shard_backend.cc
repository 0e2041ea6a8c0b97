#include "shard/shard_backend.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <utility>

#include "common/fault.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dataframe/ops.h"
#include "exec/partition.h"
#include "exec/spill.h"
#include "shard/worker.h"

namespace lafp::shard {

namespace {

using exec::BackendValue;
using exec::EagerValue;
using exec::OpDesc;
using exec::OpKind;

/// Upper bound on worker processes; LAFP_SHARDS beyond this clamps.
constexpr int kMaxShards = 64;

/// Coordinator-side handle to a sharded frame: it owns the remote frames
/// in `parts`, and destruction queues their frees (any scheduler thread
/// may drop the last reference; the protocol calls happen on the
/// coordinator thread). Ops adopt each handle into a frame as soon as it
/// is minted, before any status is checked, so no failure path leaks.
class ShardFrame : public exec::BackendFrame {
 public:
  explicit ShardFrame(std::shared_ptr<Cluster> cluster, bool broadcast = false)
      : broadcast(broadcast), cluster_(std::move(cluster)) {}
  ~ShardFrame() override {
    for (const auto& p : parts) {
      cluster_->QueueFree(p.worker, p.generation, p.handle);
    }
  }

  uint64_t num_rows() const {
    uint64_t rows = 0;
    for (const auto& p : parts) rows += p.rows;
    return rows;
  }

  /// In global partition order; for a broadcast, one copy per worker.
  std::vector<ShardPartition> parts;
  /// A whole frame placed next to another frame's partitions
  /// (Placement::Broadcast), not a partitioning of its own.
  const bool broadcast;

 private:
  std::shared_ptr<Cluster> cluster_;
};

Result<const ShardFrame*> FrameOf(const BackendValue& value) {
  auto* wrapped = dynamic_cast<ShardFrame*>(value.frame.get());
  if (wrapped == nullptr) {
    return Status::Invalid("foreign frame handle passed to shard backend");
  }
  return wrapped;
}

Result<uint64_t> RowsOfOkReply(const Message& reply) {
  if (reply.type != MsgType::kOk) {
    return Status::IOError("shard: unexpected reply type " +
                           std::to_string(static_cast<uint32_t>(reply.type)));
  }
  WireReader r(reply.payload);
  uint64_t rows = 0;
  if (!r.U64(&rows)) return r.Error("ok reply");
  return rows;
}

/// Decodes kFrameData replies, in call order.
Result<std::vector<df::DataFrame>> FramesOfReplies(
    const std::vector<Message>& replies, MemoryTracker* tracker) {
  std::vector<df::DataFrame> frames;
  frames.reserve(replies.size());
  for (const auto& reply : replies) {
    if (reply.type != MsgType::kFrameData) {
      return Status::IOError(
          "shard: expected frame data, got reply type " +
          std::to_string(static_cast<uint32_t>(reply.type)));
    }
    LAFP_ASSIGN_OR_RETURN(df::DataFrame frame,
                          exec::DeserializeFrame(reply.payload, tracker));
    frames.push_back(std::move(frame));
  }
  return frames;
}

metrics::Counter* CallCounter() {
  static auto* c = metrics::Registry::Global()->GetCounter("shard.calls");
  return c;
}

metrics::Counter* BytesCounter() {
  static auto* c =
      metrics::Registry::Global()->GetCounter("shard.bytes_shipped");
  return c;
}

metrics::Counter* RestartCounter() {
  static auto* c =
      metrics::Registry::Global()->GetCounter("shard.worker_restarts");
  return c;
}

metrics::Counter* RetryCounter() {
  static auto* c =
      metrics::Registry::Global()->GetCounter("shard.scan_retries");
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cluster

Result<std::unique_ptr<Cluster>> Cluster::Spawn(int num_workers) {
  if (num_workers < 1 || num_workers > kMaxShards) {
    return Status::Invalid("shard: worker count must be in [1, " +
                           std::to_string(kMaxShards) + "], got " +
                           std::to_string(num_workers));
  }
  std::unique_ptr<Cluster> cluster(new Cluster());
  cluster->workers_.resize(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    LAFP_RETURN_NOT_OK(cluster->SpawnWorker(w));
  }
  return cluster;
}

Cluster::~Cluster() {
  for (auto& worker : workers_) {
    if (!worker.alive) continue;
    // Workers hold only process-local state; SIGKILL is a clean teardown
    // and never leaves a query half-applied (results only exist once the
    // coordinator has the reply).
    ::kill(worker.pid, SIGKILL);
    ::close(worker.fd);
    ::waitpid(worker.pid, nullptr, 0);
    worker.alive = false;
  }
}

Status Cluster::SpawnWorker(int w) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return Status::IOError(std::string("shard: socketpair failed: ") +
                           std::strerror(errno));
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return Status::IOError(std::string("shard: fork failed: ") +
                           std::strerror(errno));
  }
  if (pid == 0) {
    // Child: keep only our end of our socketpair; sibling descriptors
    // must close so a sibling's EOF-based shutdown is not held open.
    ::close(sv[0]);
    for (const auto& other : workers_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    WorkerMain(sv[1]);  // never returns
  }
  ::close(sv[1]);
  Worker& slot = workers_[static_cast<size_t>(w)];
  slot.pid = pid;
  slot.fd = sv[0];
  slot.alive = true;
  ++slot.generation;
  if (slot.generation > 1) RestartCounter()->Increment();
  return Status::OK();
}

void Cluster::KillWorker(int w) {
  Worker& worker = workers_[static_cast<size_t>(w)];
  if (!worker.alive) return;
  ::close(worker.fd);
  worker.fd = -1;
  // The stream is broken (or poisoned by a failed exchange); make death
  // synchronous so a later EnsureAlive starts from a known-clean slate.
  ::kill(worker.pid, SIGKILL);
  ::waitpid(worker.pid, nullptr, 0);
  worker.alive = false;
}

Status Cluster::EnsureAlive(int w) {
  if (workers_[static_cast<size_t>(w)].alive) return Status::OK();
  return SpawnWorker(w);
}

Status Cluster::Send(int w, MsgType type, std::string_view payload) {
  {
    // "shard.worker_kill" is a trigger, not an error: the target dies by
    // SIGKILL and the send below fails exactly like a real worker crash,
    // so recovery is exercised end to end.
    Status killed = FaultPoint("shard.worker_kill");
    if (!killed.ok()) KillWorker(w);
  }
  LAFP_RETURN_NOT_OK(FaultPoint("shard.send"));
  Worker& worker = workers_[static_cast<size_t>(w)];
  if (!worker.alive) {
    return Status::IOError("shard worker " + std::to_string(w) + " is down");
  }
  CallCounter()->Increment();
  BytesCounter()->Add(static_cast<int64_t>(payload.size()));
  Status s = SendMessage(worker.fd, type, payload);
  if (!s.ok()) KillWorker(w);
  return s;
}

Result<Message> Cluster::Recv(int w) {
  // An injected receive failure leaves the real reply buffered in the
  // socket; callers kill the worker afterwards so the stream can never
  // desync (the next query respawns it).
  LAFP_RETURN_NOT_OK(FaultPoint("shard.recv"));
  Worker& worker = workers_[static_cast<size_t>(w)];
  if (!worker.alive) {
    return Status::IOError("shard worker " + std::to_string(w) + " is down");
  }
  Result<Message> msg = RecvMessage(worker.fd);
  if (!msg.ok()) {
    KillWorker(w);
    return Status::IOError("shard worker " + std::to_string(w) +
                           " died mid-query: " + msg.status().message());
  }
  BytesCounter()->Add(static_cast<int64_t>(msg->payload.size()));
  return msg;
}

void Cluster::QueueFree(int worker, uint64_t generation, uint64_t handle) {
  std::lock_guard<std::mutex> lock(free_mu_);
  pending_frees_.push_back({worker, generation, handle});
}

std::vector<int64_t> Cluster::FlushFrees(bool probe_all) {
  std::vector<PendingFree> pending;
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    pending.swap(pending_frees_);
  }
  std::vector<int64_t> resident(workers_.size(), -1);
  if (pending.empty() && !probe_all) return resident;
  // Group by worker; drop frees whose worker incarnation is gone (the
  // frame died with the process). Raw SendMessage/RecvMessage on purpose:
  // background bookkeeping must not consume fault-injection budgets armed
  // for the query protocol.
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    WireWriter payload;
    uint32_t n = 0;
    for (const auto& f : pending) {
      if (f.worker != static_cast<int>(w)) continue;
      if (!worker.alive || f.generation != worker.generation) continue;
      payload.U64(f.handle);
      ++n;
    }
    if (!worker.alive || (n == 0 && !probe_all)) continue;
    WireWriter msg;
    msg.U32(n);
    msg.Raw(std::string(payload.Take()));
    Result<uint64_t> count = Status::IOError("shard: free failed");
    if (SendMessage(worker.fd, MsgType::kFreeFrames, msg.Take()).ok()) {
      Result<Message> reply = RecvMessage(worker.fd);
      if (reply.ok()) count = RowsOfOkReply(*reply);
    }
    if (!count.ok()) {
      KillWorker(static_cast<int>(w));
      continue;
    }
    resident[w] = static_cast<int64_t>(*count);
  }
  return resident;
}

// ---------------------------------------------------------------------------
// ShardBackend

ShardBackend::ShardBackend(MemoryTracker* tracker,
                           const exec::BackendConfig& config)
    : Backend(tracker, config) {}

ShardBackend::~ShardBackend() = default;

bool ShardBackend::SupportsOp(const OpDesc& desc) const {
  return desc.kind != OpKind::kPrint;
}

Status ShardBackend::EnsureCluster() {
  if (cluster_ != nullptr) return Status::OK();
  int n = config_.shards;
  if (n <= 0) n = 2;
  n = std::min(n, kMaxShards);
  LAFP_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster, Cluster::Spawn(n));
  cluster_ = std::move(cluster);
  return Status::OK();
}

Status ShardBackend::RunCalls(const std::vector<WorkerCall>& calls,
                              std::vector<Message>* replies,
                              std::vector<Status>* statuses) {
  const int nw = cluster_->num_workers();
  replies->assign(calls.size(), Message{});
  statuses->assign(calls.size(), Status::OK());
  std::vector<std::deque<size_t>> queues(static_cast<size_t>(nw));
  for (size_t i = 0; i < calls.size(); ++i) {
    queues[static_cast<size_t>(calls[i].worker)].push_back(i);
  }
  std::vector<ptrdiff_t> inflight(static_cast<size_t>(nw), -1);
  bool cancelled = false;
  while (true) {
    if (!cancelled && config_.cancel != nullptr && config_.cancel->cancelled()) {
      cancelled = true;  // stop launching; drain what is in flight
    }
    bool progressed = false;
    if (!cancelled) {
      for (int w = 0; w < nw; ++w) {
        auto& q = queues[static_cast<size_t>(w)];
        if (inflight[static_cast<size_t>(w)] >= 0 || q.empty()) continue;
        const size_t i = q.front();
        q.pop_front();
        trace::Span span("shard:send", "backend");
        if (span.active()) {
          span.AddArg("worker", w);
          span.AddArg("type", static_cast<int>(calls[i].type));
        }
        Status s = cluster_->Send(w, calls[i].type, calls[i].payload);
        if (!s.ok()) {
          (*statuses)[i] = std::move(s);
          cluster_->KillWorker(w);  // uniform: failed call = dead worker
        } else {
          inflight[static_cast<size_t>(w)] = static_cast<ptrdiff_t>(i);
        }
        progressed = true;
      }
    }
    for (int w = 0; w < nw; ++w) {
      if (inflight[static_cast<size_t>(w)] < 0) continue;
      const size_t i = static_cast<size_t>(inflight[static_cast<size_t>(w)]);
      inflight[static_cast<size_t>(w)] = -1;
      trace::Span span("shard:recv", "backend");
      if (span.active()) span.AddArg("worker", w);
      Result<Message> msg = cluster_->Recv(w);
      if (!msg.ok()) {
        (*statuses)[i] = msg.status();
        cluster_->KillWorker(w);
      } else if (msg->type == MsgType::kError) {
        // Worker-side failure: the worker is alive and its stream is
        // clean; only this call failed.
        (*statuses)[i] = DecodeErrorPayload(msg->payload);
      } else {
        (*replies)[i] = std::move(*msg);
      }
      progressed = true;
    }
    bool pending = false;
    for (int w = 0; w < nw; ++w) {
      if (inflight[static_cast<size_t>(w)] >= 0 ||
          (!cancelled && !queues[static_cast<size_t>(w)].empty())) {
        pending = true;
      }
    }
    if (!pending) break;
    if (!progressed && cancelled) break;
  }
  if (cancelled) {
    return Status::Cancelled("shard query cancelled by the coordinator");
  }
  return Status::OK();
}

Status ShardBackend::ValidateLive(
    const std::vector<ShardPartition>& parts) const {
  for (const auto& p : parts) {
    if (!cluster_->alive(p.worker) ||
        cluster_->generation(p.worker) != p.generation) {
      return Status::IOError(
          "shard partition lost: worker " + std::to_string(p.worker) +
          " restarted since the partition was created; rerun the query");
    }
  }
  return Status::OK();
}

Result<std::vector<Message>> ShardBackend::RunAll(
    const std::vector<WorkerCall>& calls) {
  std::vector<Message> replies;
  std::vector<Status> statuses;
  LAFP_RETURN_NOT_OK(RunCalls(calls, &replies, &statuses));
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return replies;
}

Result<BackendValue> ShardBackend::Execute(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  std::lock_guard<std::mutex> lock(mu_);
  trace::Span span("shard:execute", "backend");
  if (span.active()) span.AddArg("op", desc.ToString());
  LAFP_RETURN_NOT_OK(EnsureCluster());
  cluster_->FlushFrees();
  return executor_.Execute(desc, inputs);
}

Result<EagerValue> ShardBackend::Materialize(const BackendValue& value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cluster_ == nullptr) {
    return Status::Invalid("shard: materialize before any execution");
  }
  return executor_.Materialize(value);
}

Result<BackendValue> ShardBackend::FromEager(const EagerValue& value) {
  std::lock_guard<std::mutex> lock(mu_);
  LAFP_RETURN_NOT_OK(EnsureCluster());
  return executor_.FromEager(value);
}

int64_t ShardBackend::RowCount(const BackendValue& value) const {
  if (value.is_scalar) return 1;
  auto* wrapped = dynamic_cast<ShardFrame*>(value.frame.get());
  if (wrapped == nullptr) return -1;
  return static_cast<int64_t>(wrapped->num_rows());
}

std::vector<int64_t> ShardBackend::ResidentFrames() {
  std::lock_guard<std::mutex> lock(mu_);
  if (cluster_ == nullptr) return {};
  return cluster_->FlushFrees(/*probe_all=*/true);
}

Result<BackendValue> ShardBackend::Scan(const OpDesc& desc) {
  const int nw = cluster_->num_workers();
  for (int w = 0; w < nw; ++w) {
    LAFP_RETURN_NOT_OK(cluster_->EnsureAlive(w));
  }
  auto make_call = [&](int w) {
    WireWriter payload;
    EncodeOpDesc(desc, &payload);
    payload.U32(static_cast<uint32_t>(w));
    payload.U32(static_cast<uint32_t>(nw));
    payload.U64(config_.partition_rows);
    return WorkerCall{w, MsgType::kScan, payload.Take()};
  };
  // Workers mint the scan handles; `minted` owns each one the moment a
  // reply names it, and `global` records its global partition index.
  auto minted = std::make_shared<ShardFrame>(cluster_);
  std::vector<uint64_t> global;
  uint64_t total = 0;
  auto adopt = [&](int w, const Message& reply) -> Status {
    if (reply.type != MsgType::kScanResult) {
      return Status::IOError("shard: scan reply had unexpected type");
    }
    WireReader r(reply.payload);
    uint64_t wtotal = 0;
    uint32_t nlocal = 0;
    if (!r.U64(&wtotal) || !r.U32(&nlocal)) return r.Error("scan result");
    for (uint32_t j = 0; j < nlocal; ++j) {
      uint64_t g = 0, handle = 0, rows = 0;
      if (!r.U64(&g) || !r.U64(&handle) || !r.U64(&rows)) {
        return r.Error("scan partition entry");
      }
      minted->parts.push_back({rows, w, cluster_->generation(w), handle});
      global.push_back(g);
    }
    if (total != 0 && wtotal != total) {
      return Status::ExecutionError(
          "shard: workers disagreed on scan partition count");
    }
    total = wtotal;
    return Status::OK();
  };
  std::vector<WorkerCall> calls;
  for (int w = 0; w < nw; ++w) calls.push_back(make_call(w));
  std::vector<Message> replies;
  std::vector<Status> statuses;
  Status run = RunCalls(calls, &replies, &statuses);
  Status adopted = Status::OK();
  for (size_t i = 0; i < calls.size(); ++i) {
    if (!statuses[i].ok()) continue;
    Status s = adopt(calls[i].worker, replies[i]);
    if (adopted.ok()) adopted = std::move(s);
  }
  LAFP_RETURN_NOT_OK(run);
  LAFP_RETURN_NOT_OK(adopted);
  // Scans are idempotent (they reference only the on-disk source), so a
  // worker lost mid-scan gets respawned and retried exactly once — the
  // transparent half of the failure contract.
  for (size_t i = 0; i < calls.size(); ++i) {
    if (statuses[i].ok()) continue;
    const int w = calls[i].worker;
    RetryCounter()->Increment();
    Status respawn = cluster_->EnsureAlive(w);
    if (!respawn.ok()) return statuses[i];
    LAFP_ASSIGN_OR_RETURN(std::vector<Message> retry,
                          RunAll({make_call(w)}));
    LAFP_RETURN_NOT_OK(adopt(w, retry[0]));
  }
  if (total == 0 || total > (1u << 22) || global.size() != total) {
    return Status::ExecutionError("shard: scan reported " +
                                  std::to_string(global.size()) + " of " +
                                  std::to_string(total) + " partitions");
  }
  std::vector<ShardPartition> ordered(static_cast<size_t>(total));
  std::vector<bool> seen(static_cast<size_t>(total), false);
  for (size_t k = 0; k < global.size(); ++k) {
    const uint64_t g = global[k];
    if (g >= total || seen[static_cast<size_t>(g)]) {
      return Status::ExecutionError(
          "shard: scan produced an inconsistent partition assignment");
    }
    seen[static_cast<size_t>(g)] = true;
    ordered[static_cast<size_t>(g)] = minted->parts[k];
  }
  minted->parts.swap(ordered);
  return BackendValue::Frame(std::move(minted));
}

Result<BackendValue> ShardBackend::Map(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  std::vector<const ShardFrame*> frames(inputs.size(), nullptr);
  for (size_t k = 0; k < inputs.size(); ++k) {
    if (k > 0 && inputs[k].is_scalar) continue;
    LAFP_ASSIGN_OR_RETURN(frames[k], FrameOf(inputs[k]));
    LAFP_RETURN_NOT_OK(ValidateLive(frames[k]->parts));
  }
  const auto& pp = frames[0]->parts;
  auto out = std::make_shared<ShardFrame>(cluster_);
  std::vector<WorkerCall> calls;
  calls.reserve(pp.size());
  for (size_t i = 0; i < pp.size(); ++i) {
    const uint64_t handle = cluster_->NextHandle();
    out->parts.push_back({0, pp[i].worker, pp[i].generation, handle});
    WireWriter payload;
    EncodeOpDesc(desc, &payload);
    payload.U64(handle);
    payload.U32(static_cast<uint32_t>(inputs.size()));
    for (size_t k = 0; k < inputs.size(); ++k) {
      if (frames[k] == nullptr) {
        payload.U8(1);
        EncodeScalar(inputs[k].scalar, &payload);
        continue;
      }
      const auto& parts = frames[k]->parts;
      auto src = frames[k]->broadcast
                     ? std::find_if(parts.begin(), parts.end(),
                                    [&](const ShardPartition& p) {
                                      return p.worker == pp[i].worker;
                                    })
                     : parts.begin() + static_cast<ptrdiff_t>(i);
      if (src == parts.end()) {
        return Status::Invalid("shard: broadcast missing on a worker");
      }
      payload.U8(0);
      payload.U64(src->handle);
    }
    calls.push_back({pp[i].worker, MsgType::kExecOp, payload.Take()});
  }
  LAFP_ASSIGN_OR_RETURN(std::vector<Message> replies, RunAll(calls));
  for (size_t i = 0; i < replies.size(); ++i) {
    LAFP_ASSIGN_OR_RETURN(out->parts[i].rows, RowsOfOkReply(replies[i]));
  }
  return BackendValue::Frame(std::move(out));
}

Result<std::vector<df::DataFrame>> ShardBackend::Partials(
    const OpDesc& desc, const BackendValue& input) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* frame, FrameOf(input));
  LAFP_RETURN_NOT_OK(ValidateLive(frame->parts));
  std::vector<WorkerCall> calls;
  for (const auto& p : frame->parts) {
    WireWriter payload;
    EncodeOpDesc(desc, &payload);
    payload.U64(p.handle);
    calls.push_back({p.worker, MsgType::kPartial, payload.Take()});
  }
  LAFP_ASSIGN_OR_RETURN(std::vector<Message> replies, RunAll(calls));
  return FramesOfReplies(replies, tracker_);
}

Result<BackendValue> ShardBackend::Broadcast(const df::DataFrame& frame,
                                             const BackendValue& near) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* target, FrameOf(near));
  LAFP_RETURN_NOT_OK(ValidateLive(target->parts));
  LAFP_ASSIGN_OR_RETURN(std::string bytes, exec::SerializeFrame(frame));
  // One copy per worker that holds a partition of `near`.
  auto out = std::make_shared<ShardFrame>(cluster_, /*broadcast=*/true);
  std::vector<WorkerCall> puts;
  for (const auto& p : target->parts) {
    if (std::any_of(out->parts.begin(), out->parts.end(),
                    [&](const ShardPartition& c) {
                      return c.worker == p.worker;
                    })) {
      continue;
    }
    const uint64_t handle = cluster_->NextHandle();
    out->parts.push_back({frame.num_rows(), p.worker, p.generation, handle});
    WireWriter payload;
    payload.U64(handle);
    payload.Raw(bytes);
    puts.push_back({p.worker, MsgType::kPutFrame, payload.Take()});
  }
  LAFP_RETURN_NOT_OK(RunAll(puts).status());
  return BackendValue::Frame(std::move(out));
}

Result<df::DataFrame> ShardBackend::Gather(const BackendValue& value) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* frame, FrameOf(value));
  LAFP_RETURN_NOT_OK(ValidateLive(frame->parts));
  std::vector<WorkerCall> calls;
  for (const auto& p : frame->parts) {
    WireWriter payload;
    payload.U64(p.handle);
    calls.push_back({p.worker, MsgType::kGetFrame, payload.Take()});
  }
  LAFP_ASSIGN_OR_RETURN(std::vector<Message> replies, RunAll(calls));
  LAFP_ASSIGN_OR_RETURN(std::vector<df::DataFrame> frames,
                        FramesOfReplies(replies, tracker_));
  // Mirror PartitionedFrame::ToEager: a single partition passes through,
  // several concatenate — byte-identical to the other backends.
  if (frames.size() == 1) return std::move(frames[0]);
  return df::Concat(frames);
}

Result<BackendValue> ShardBackend::Scatter(const df::DataFrame& frame) {
  LAFP_ASSIGN_OR_RETURN(
      exec::PartitionedFrame chunks,
      exec::PartitionedFrame::FromEager(frame, config_.partition_rows));
  const int nw = cluster_->num_workers();
  auto out = std::make_shared<ShardFrame>(cluster_);
  std::vector<WorkerCall> calls;
  for (size_t i = 0; i < chunks.num_partitions(); ++i) {
    // Same placement rule as scans (global index mod N), so re-scattered
    // frames stay aligned with scanned frames of equal geometry.
    const int w = static_cast<int>(i % static_cast<size_t>(nw));
    LAFP_RETURN_NOT_OK(cluster_->EnsureAlive(w));
    LAFP_ASSIGN_OR_RETURN(df::DataFrame chunk, chunks.partition(i, tracker_));
    LAFP_ASSIGN_OR_RETURN(std::string bytes, exec::SerializeFrame(chunk));
    const uint64_t handle = cluster_->NextHandle();
    out->parts.push_back(
        {chunk.num_rows(), w, cluster_->generation(w), handle});
    WireWriter payload;
    payload.U64(handle);
    payload.Raw(bytes);
    calls.push_back({w, MsgType::kPutFrame, payload.Take()});
  }
  LAFP_ASSIGN_OR_RETURN(std::vector<Message> replies, RunAll(calls));
  for (size_t i = 0; i < replies.size(); ++i) {
    LAFP_ASSIGN_OR_RETURN(uint64_t rows, RowsOfOkReply(replies[i]));
    if (rows != out->parts[i].rows) {
      return Status::ExecutionError(
          "shard: scatter round-trip changed a partition's row count");
    }
  }
  return BackendValue::Frame(std::move(out));
}

Result<BackendValue> ShardBackend::PlaceResult(df::DataFrame frame) {
  return Scatter(frame);
}

Result<bool> ShardBackend::Aligned(const BackendValue& a,
                                   const BackendValue& b) const {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* fa, FrameOf(a));
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* fb, FrameOf(b));
  if (fb->broadcast || fa->parts.size() != fb->parts.size()) return false;
  for (size_t i = 0; i < fa->parts.size(); ++i) {
    if (fa->parts[i].worker != fb->parts[i].worker ||
        fa->parts[i].generation != fb->parts[i].generation) {
      return false;
    }
  }
  return true;
}

Result<EagerValue> ShardBackend::RunWhole(
    const OpDesc& desc, const std::vector<EagerValue>& inputs) {
  return exec::ExecuteEagerOp(desc, inputs, tracker_);
}

}  // namespace lafp::shard
