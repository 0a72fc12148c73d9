#ifndef KGACC_STORE_COMPACTION_H_
#define KGACC_STORE_COMPACTION_H_

#include <cstdint>
#include <string>

#include "kgacc/util/status.h"

/// \file compaction.h
/// Offline companions to `AnnotationStore::Compact()` (whose implementation
/// lives in compaction.cc next to these): structural verification of a
/// store log without opening it for writing — the `kgacc_store verify`
/// admin path. The verifier reads and decodes the log exactly as recovery
/// does — the same frame scan (`WriteAheadLog::Scan`) re-checks every
/// per-frame CRC, and the same payload decoder (`AnnotationStore::Replay`)
/// decodes each payload and, when the log was written by compaction,
/// re-derives the trailer's chained live-CRC and frame counts — so a
/// corrupted, truncated, or tampered rewrite is reported without touching
/// the file.

namespace kgacc {

/// What `VerifyStoreLog` found.
struct StoreVerifyInfo {
  /// Intact frames of each kind.
  uint64_t records = 0;
  uint64_t checkpoints = 0;
  uint64_t ledgers = 0;
  uint64_t trailers = 0;
  /// Bytes of valid log (header + intact frames) and of torn/corrupt tail.
  uint64_t bytes_valid = 0;
  uint64_t bytes_torn = 0;
  /// False when the file ends in a torn or corrupt tail (`Open` would
  /// truncate it; the data before it is fine).
  bool clean_tail = true;
  /// True when the log carries a verified compaction trailer.
  bool compacted = false;
};

/// Structurally verifies the store log at `path` read-only. Returns the
/// accounting above; fails with a status when the file is unreadable, is
/// not a store log, a frame decodes to garbage despite a valid CRC, or a
/// compaction trailer's counts/chained CRC disagree with the frames before
/// it (a torn tail alone is *not* an error — recovery truncates it).
Result<StoreVerifyInfo> VerifyStoreLog(const std::string& path);

}  // namespace kgacc

#endif  // KGACC_STORE_COMPACTION_H_
