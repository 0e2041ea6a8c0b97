#ifndef LAFP_SHARD_WIRE_H_
#define LAFP_SHARD_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "dataframe/types.h"
#include "exec/op.h"

/// Coordinator <-> worker wire protocol for the shared-nothing shard
/// executor (src/shard/). Everything on the socket is a framed message:
///
///   u32 magic ("LFSH") | u32 type | u64 payload_len | payload bytes
///
/// Payloads are little-endian structs built with WireWriter and decoded
/// with the bounds-checked WireReader; dataframes travel as one-chunk LFC
/// images (exec/spill.h SerializeFrame/DeserializeFrame over
/// io/columnar.h), so the exchange, spill files and LFC files share one
/// validating decoder.
///
/// Request payloads (coordinator -> worker):
///   kScan:           OpDesc | u32 worker_index | u32 num_workers
///                    | u64 partition_rows
///   kExecOp:         OpDesc | u64 out_handle | u32 ninputs
///                    | per input: u8 tag (0 = u64 handle, 1 = Scalar)
///   kPartial:        OpDesc (kGroupByAgg or kReduce) | u64 handle;
///                    the worker replies with PartialOf(desc, frame)
///   kPutFrame:       u64 handle | frame bytes (rest of payload)
///   kGetFrame:       u64 handle
///   kFreeFrames:     u32 n x u64 handle
///   kShutdown:       (empty; the worker _exits without replying)
///
/// Reply payloads (worker -> coordinator); every request except
/// kShutdown gets exactly one reply:
///   kOk:         u64 rows (of the stored frame; for kFreeFrames, the
///                frames still resident on the worker)
///   kFrameData:  frame bytes
///   kScanResult: u64 total_partitions | u32 nlocal
///                | nlocal x (u64 global_index, u64 handle, u64 rows)
///   kError:      u32 status code | str message
namespace lafp::shard {

/// Frame header magic: "LFSH".
constexpr uint32_t kFrameMagic = 0x4846534cu;

/// Per-message payload clamp. A crafted or corrupted length header must
/// not drive a multi-gigabyte allocation before any payload byte is read.
constexpr uint64_t kMaxMessageBytes = 1ull << 30;  // 1 GiB

/// Handles the worker assigns locally during scans live above this base;
/// coordinator-assigned handles count up from 1, so the two spaces can
/// never collide within one worker's frame table.
constexpr uint64_t kWorkerHandleBase = 1ull << 62;

enum class MsgType : uint32_t {
  // Requests.
  kScan = 1,
  kExecOp = 2,
  kPartial = 3,
  kPutFrame = 4,
  kGetFrame = 5,
  kFreeFrames = 6,
  kShutdown = 7,
  // Replies.
  kOk = 100,
  kFrameData = 101,
  kScanResult = 102,
  kError = 103,
};

struct Message {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Writes one framed message to `fd` (EINTR-safe, MSG_NOSIGNAL — a dead
/// peer surfaces as a clean Status, never SIGPIPE).
Status SendMessage(int fd, MsgType type, std::string_view payload);

/// Reads one framed message from `fd`. EOF or a malformed header (bad
/// magic, payload above kMaxMessageBytes) is a clean IOError.
Result<Message> RecvMessage(int fd);

/// Little-endian payload builder.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendPod(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendPod(&v, sizeof(v)); }
  void I64(int64_t v) { AppendPod(&v, sizeof(v)); }
  void F64(double v) { AppendPod(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void Raw(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }

  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void AppendPod(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked payload decoder: every getter returns false instead of
/// reading past the end, so a truncated or hostile payload can never walk
/// off the buffer. `Error(what)` converts exhaustion into a clean Status.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* out);
  bool U32(uint32_t* out);
  bool U64(uint64_t* out);
  bool I64(int64_t* out);
  bool F64(double* out);
  bool Str(std::string* out);

  size_t remaining() const { return data_.size() - pos_; }
  /// The unread tail (used for trailing frame-bytes payloads).
  std::string_view Rest() const { return data_.substr(pos_); }

  Status Error(const char* what) const {
    return Status::IOError(std::string("shard wire: truncated ") + what);
  }

 private:
  bool ReadPod(void* out, size_t n);
  std::string_view data_;
  size_t pos_ = 0;
};

/// Scalar codec: u8 type tag + value. Category scalars travel as strings
/// (the scalar layer has no standalone dictionary to preserve).
void EncodeScalar(const df::Scalar& s, WireWriter* w);
Status DecodeScalar(WireReader* r, df::Scalar* out);

/// Plan-fragment codec: a byte-exact, reversible walk of every OpDesc
/// field (including the recursive `fused` chain, depth-clamped). Decode
/// range-checks every enum so a corrupt fragment yields a clean Status
/// instead of an out-of-range enum reaching the kernels.
void EncodeOpDesc(const exec::OpDesc& desc, WireWriter* w);
Status DecodeOpDesc(WireReader* r, exec::OpDesc* out);

/// kError payload codec. Unknown status codes decode as kExecutionError.
std::string EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(std::string_view payload);

}  // namespace lafp::shard

#endif  // LAFP_SHARD_WIRE_H_
