#ifndef LAFP_EXEC_SPILL_H_
#define LAFP_EXEC_SPILL_H_

#include <string>
#include <string_view>

#include "dataframe/dataframe.h"

namespace lafp::exec {

/// Partition persistence (the §5.4 disk-persist extension) and the shard
/// executor's partition-exchange payloads (src/shard/). Both are LFC
/// images (io/columnar.h) holding one chunk per frame, so spill files,
/// exchange payloads and LFC files share one encoder and one validating
/// decoder. Unlike a CSV round trip, reload is a straight typed read — no
/// parsing, no type inference — and categories keep their dictionary.
///
/// A zero-row frame with a non-empty column table is a first-class value
/// (the shard exchange ships empty partitions routinely) and round-trips;
/// an image claiming rows but no columns is rejected as corrupt.

/// Writes through `path + ".tmp"` and an atomic rename. The `spill.write`
/// fault site fires once per column; a failed or faulted write leaves no
/// file at either path.
Status WriteSpillFile(const df::DataFrame& frame, const std::string& path);

/// `spill.read` fires at open; the whole file must be one valid image.
Result<df::DataFrame> ReadSpillFile(const std::string& path,
                                    MemoryTracker* tracker);

/// Exchange payloads: no fault site, span or counter (the shard transport
/// owns those). DeserializeFrame decodes straight from `bytes`, which
/// must hold exactly one image — trailing bytes mean protocol desync.
Result<std::string> SerializeFrame(const df::DataFrame& frame);
Result<df::DataFrame> DeserializeFrame(std::string_view bytes,
                                       MemoryTracker* tracker);

}  // namespace lafp::exec

#endif  // LAFP_EXEC_SPILL_H_
