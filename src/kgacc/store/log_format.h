#ifndef KGACC_STORE_LOG_FORMAT_H_
#define KGACC_STORE_LOG_FORMAT_H_

#include <cstddef>
#include <cstdint>

/// \file log_format.h
/// The one definition of the store's on-disk format, for writing and for
/// reading. A log file is:
///
///   [8-byte magic "kgacWAL1"]
///   frame*   where frame = [type u8][payload_len varint][payload][crc32c]
///
/// Frames go through the shared codec in util/codec.h (`PutFrame`,
/// `DecodeFrame`) with `kMaxPayloadBytes` as the decode cap, and their
/// payloads through `AnnotationStore::Replay`. The live appender
/// (`WriteAheadLog`), the compaction rewriter, recovery and the offline
/// verifier (`kgacc_store verify`) all use exactly these pieces, so a
/// rewritten log replays with no special cases and the verifier decodes
/// what recovery decodes.

namespace kgacc::walfmt {

/// File magic: identifies the format and its version in the first 8 bytes.
inline constexpr char kMagic[8] = {'k', 'g', 'a', 'c', 'W', 'A', 'L', '1'};
inline constexpr size_t kMagicSize = sizeof(kMagic);

/// Upper bound on one frame's payload. Real payloads are bytes to
/// kilobytes; anything near this limit in a length prefix is corruption,
/// not data, and must not drive a giant allocation during recovery.
inline constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 30;

/// Frame types owned by the annotation store. The trailer frame is written
/// only by compaction, as the last frame of a rewritten log: it seals the
/// live set with counts, the carried next_seq, and a chained CRC over every
/// preceding payload, so replay can prove the rewrite is complete and
/// untampered (frames appended *after* it are ordinary post-compaction
/// traffic).
inline constexpr uint8_t kAnnotationFrame = 1;
inline constexpr uint8_t kCheckpointFrame = 2;
inline constexpr uint8_t kCompactionTrailerFrame = 3;
/// Tenant quota-ledger frame: `string(tenant_id), varint(oracle_spent),
/// varint(store_bytes)`. Totals are *cumulative*, so replay is latest-wins
/// per tenant and a frame lost to a torn tail is healed by the next one.
inline constexpr uint8_t kTenantLedgerFrame = 4;

}  // namespace kgacc::walfmt

#endif  // KGACC_STORE_LOG_FORMAT_H_
