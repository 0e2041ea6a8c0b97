#include "exec/spill.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "io/columnar.h"

namespace lafp::exec {

namespace {

/// One chunk per frame: spill files and payloads are read whole, so
/// finer chunks would only add zone-map metadata.
size_t OneChunk(const df::DataFrame& frame) {
  return std::max<size_t>(1, frame.num_rows());
}

}  // namespace

Status WriteSpillFile(const df::DataFrame& frame, const std::string& path) {
  trace::Span span("spill:write", "io");
  if (span.active()) {
    span.AddArg("rows", static_cast<int64_t>(frame.num_rows()));
  }
  static auto* spill_writes =
      metrics::Registry::Global()->GetCounter("spill.writes");
  spill_writes->Increment();
  return io::WriteFileAtomically(path, "spill file", [&](std::ostream& out) {
    return io::EncodeLfc(frame, OneChunk(frame), out, "spill.write");
  });
}

Result<df::DataFrame> ReadSpillFile(const std::string& path,
                                    MemoryTracker* tracker) {
  trace::Span span("spill:read", "io");
  static auto* spill_reads =
      metrics::Registry::Global()->GetCounter("spill.reads");
  spill_reads->Increment();
  LAFP_RETURN_NOT_OK(FaultPoint("spill.read"));
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open spill file " + path);
  }
  std::error_code ec;
  const uint64_t file_size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::IOError("cannot stat spill file " + path + ": " +
                           ec.message());
  }
  std::string bytes(file_size, '\0');
  if (!in.read(bytes.data(), static_cast<std::streamsize>(file_size))) {
    return Status::IOError("cannot read spill file " + path);
  }
  return io::DecodeLfc(bytes, tracker, "spill file " + path);
}

Result<std::string> SerializeFrame(const df::DataFrame& frame) {
  std::ostringstream out(std::ios::binary);
  LAFP_RETURN_NOT_OK(io::EncodeLfc(frame, OneChunk(frame), out));
  return std::move(out).str();
}

Result<df::DataFrame> DeserializeFrame(std::string_view bytes,
                                       MemoryTracker* tracker) {
  return io::DecodeLfc(bytes, tracker, "shard exchange");
}

}  // namespace lafp::exec
