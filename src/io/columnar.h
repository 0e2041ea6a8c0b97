#ifndef LAFP_IO_COLUMNAR_H_
#define LAFP_IO_COLUMNAR_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "dataframe/dataframe.h"
#include "io/csv.h"

namespace lafp::io {

/// LFC ("Lazy Fat Columnar") — the native on-disk table format
/// (DESIGN.md "Native columnar storage") and the one frame codec: LFC
/// files, spill files (exec/spill.h) and shard exchange payloads are all
/// LFC images, written by one encoder and validated by one parser.
///
///   [magic u64]
///   [chunk data: per chunk, per column: validity bitmap + payload]
///   [dictionary section: per string/category column]
///   [footer: versioned metadata + per-chunk zone maps]
///   [trailer: footer_len u64 | footer_checksum u64 | magic u64]
///
/// The footer lives at the end so the writer streams chunk payloads
/// without back-patching; readers locate it through the fixed-size
/// trailer. The parser works on any byte range (an mmap'd file or an
/// in-memory payload) and validates every offset/length against it
/// before touching bytes. It also checks that magic, chunks (in
/// chunk-major, column-minor order), dictionaries, footer and trailer
/// tile the range exactly, so no byte of an accepted image is unread.
/// tests/lfc_corpus holds the hostile inputs.
///
/// Fault points: `lfc.write` fires once per column-chunk while writing
/// and once more before the rename (partial tmp files are unlinked; the
/// final rename is atomic) and `lfc.read` fires at open.

inline constexpr uint64_t kLfcMagic = 0x4c41465043465331ULL;  // "LAFPCFS1"
inline constexpr uint32_t kLfcVersion = 1;

struct LfcWriteOptions {
  /// Rows per chunk; each chunk carries its own zone maps, so smaller
  /// chunks prune harder but cost more metadata.
  size_t chunk_rows = 65536;
};

/// One conjunctive scan predicate (`column <op> scalar`) consulted
/// against zone maps at scan time. Pruning only ever *skips* chunks that
/// cannot contain a matching row — the actual filter kernel still runs
/// above the scan, so an over-conservative zone test is never wrong.
struct LfcPredicate {
  std::string column;
  df::CompareOp op = df::CompareOp::kEq;
  df::Scalar scalar;
};

struct LfcReadOptions {
  std::vector<std::string> usecols;  // empty = all; selected in file order
  size_t nrows = 0;                  // 0 = all rows
  /// Conjunctive zone-map predicates attached by the optimizer's
  /// zone-prune pass (or tests). Skipped chunks still consume their
  /// `nrows` quota so pruned output == Filter(unpruned output).
  std::vector<LfcPredicate> prune;
  bool prune_enabled = true;
};

struct LfcReadStats {
  size_t chunks_total = 0;    // chunks inside the nrows window
  size_t chunks_skipped = 0;  // zone-map pruned
};

/// Per-chunk zone map. `has_bounds` is false when the chunk holds no
/// valid, non-NaN value (then no comparison against a non-null scalar
/// can match) and always for dictionary-encoded columns (their pruning
/// uses dictionary membership, not ordering).
struct LfcZoneMap {
  uint64_t null_count = 0;
  bool has_bounds = false;
  int64_t min_i = 0, max_i = 0;  // int64 / timestamp / bool space
  double min_d = 0.0, max_d = 0.0;  // double space
};

struct LfcColumnInfo {
  std::string name;
  df::DataType type = df::DataType::kNull;  // logical (kCategory kept)
};

struct LfcFileInfo {
  uint64_t nrows = 0;
  size_t num_chunks = 0;
  std::vector<LfcColumnInfo> columns;
  uint64_t footer_checksum = 0;
};

/// The one frame encoder: writes `frame` to `out` as a complete LFC image
/// in chunks of `chunk_rows` rows (0 = the LfcWriteOptions default).
/// When `fault_site` is non-null, FaultPoint(fault_site) is consulted
/// before each column chunk, so an injected fault lands mid-image. A
/// failed stream stops the encode with an IOError; kNull-typed columns
/// are rejected. Callers own the surrounding file or buffer.
Status EncodeLfc(const df::DataFrame& frame, size_t chunk_rows,
                 std::ostream& out, const char* fault_site = nullptr);

/// Write an encoded image to `path` through `path + ".tmp"` and an atomic
/// rename: `encode` fills the stream, and on any failure (its Status or a
/// failed stream) the tmp file is unlinked, so neither path ever holds a
/// partial image. `what` names the file kind in messages ("lfc file").
Status WriteFileAtomically(const std::string& path, const std::string& what,
                           const std::function<Status(std::ostream&)>& encode);

/// Decode every row of an in-memory LFC image (a spill file's bytes, a
/// shard exchange payload) with the same validation as LfcReader::Open.
/// `context` names the source in error messages ("shard exchange").
Result<df::DataFrame> DecodeLfc(std::string_view bytes, MemoryTracker* tracker,
                                const std::string& context);

/// True when `path` starts with the LFC magic (false on any IO error).
/// Cheap enough for per-read dispatch sniffing.
bool IsLfcFile(const std::string& path);

/// Write `frame` as an LFC file. Streams into `path + ".tmp"` and
/// renames atomically; a failed or faulted write never leaves a partial
/// file at either path. kNull-typed columns are rejected.
Status WriteLfcFile(const df::DataFrame& frame, const std::string& path,
                    const LfcWriteOptions& options = {});

/// Eager whole-file read with projection, row limit, and zone-map
/// pruning. `stats`, when non-null, reports chunk-skip counts.
Result<df::DataFrame> ReadLfcFile(const std::string& path,
                                  const LfcReadOptions& options,
                                  MemoryTracker* tracker,
                                  LfcReadStats* stats = nullptr);

/// Footer-only metadata: schema, row/chunk counts, footer checksum.
/// Used by plan fingerprinting, the rewriter, and the result cache.
Result<LfcFileInfo> ReadLfcInfo(const std::string& path);

/// Convert a CSV file (with full read options) into an LFC file.
Status ConvertCsvToLfc(const std::string& csv_path,
                       const std::string& lfc_path,
                       const CsvReadOptions& csv_options,
                       const LfcWriteOptions& options,
                       MemoryTracker* tracker);

/// mmap-backed chunk reader — the streaming/partitioned scan surface
/// (Dask partitions, Modin chunk-per-partition reads). Thread-safe for
/// concurrent ReadChunk calls: the mapping is immutable and decoded
/// columns charge the (thread-safe) MemoryTracker.
class LfcReader {
 public:
  static Result<std::unique_ptr<LfcReader>> Open(const std::string& path,
                                                 MemoryTracker* tracker);
  ~LfcReader();

  LfcReader(const LfcReader&) = delete;
  LfcReader& operator=(const LfcReader&) = delete;

  const LfcFileInfo& info() const { return info_; }
  const std::string& path() const { return path_; }
  size_t num_chunks() const { return chunk_rows_.size(); }
  uint64_t chunk_rows(size_t chunk) const { return chunk_rows_[chunk]; }
  const LfcZoneMap& zone_map(size_t col, size_t chunk) const;

  /// Resolve `usecols` to column indexes in file order (the pandas
  /// usecols contract, matching the CSV reader). KeyError on a missing
  /// name; empty input selects every column.
  Result<std::vector<size_t>> SelectColumns(
      const std::vector<std::string>& usecols) const;

  /// Zone-map test: can `chunk` contain a row satisfying every
  /// predicate? Indeterminate predicates (unknown column, type mismatch
  /// the compare kernel would reject) conservatively return true.
  bool ChunkMayMatch(size_t chunk,
                     const std::vector<LfcPredicate>& prune) const;

  /// Decode the first `limit` rows (0 = all) of `chunk`, projected to
  /// `col_idxs` (file-order indexes from SelectColumns).
  Result<df::DataFrame> ReadChunk(size_t chunk,
                                  const std::vector<size_t>& col_idxs,
                                  size_t limit = 0) const;

  /// An empty frame carrying the projected schema (header-only reads).
  Result<df::DataFrame> EmptyFrame(const std::vector<size_t>& col_idxs) const;

 private:
  struct Impl;
  /// `take` leading rows of one chunk.
  struct Slice {
    size_t chunk;
    uint64_t take;
  };
  LfcReader();

  /// The parse core behind Open and DecodeLfc: validates the image at
  /// [data, data + size), which must outlive the reader.
  Status Parse(const uint8_t* data, size_t size, std::string context,
               MemoryTracker* tracker);

  /// Decode `slices` of the columns `col_idxs`, each column assembled
  /// once; no slices gives the empty projected frame.
  Result<df::DataFrame> Assemble(const std::vector<size_t>& col_idxs,
                                 const std::vector<Slice>& slices) const;

  friend Result<df::DataFrame> ReadLfcFile(const std::string& path,
                                           const LfcReadOptions& options,
                                           MemoryTracker* tracker,
                                           LfcReadStats* stats);
  friend Result<df::DataFrame> DecodeLfc(std::string_view bytes,
                                         MemoryTracker* tracker,
                                         const std::string& context);

  std::unique_ptr<Impl> impl_;
  std::string path_;
  LfcFileInfo info_;
  std::vector<uint64_t> chunk_rows_;
  MemoryTracker* tracker_ = nullptr;
};

}  // namespace lafp::io

#endif  // LAFP_IO_COLUMNAR_H_
