#ifndef KGACC_STORE_LOG_FORMAT_H_
#define KGACC_STORE_LOG_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "kgacc/util/status.h"

/// \file log_format.h
/// The one definition of the store's on-disk format, for writing and for
/// reading. A log file is:
///
///   [8-byte magic "kgacWAL1"]
///   frame*   where frame = [type u8][payload_len varint][payload][crc32c]
///
/// Frames go through the shared codec in util/codec.h (`PutFrame`,
/// `DecodeFrame`) with `kMaxPayloadBytes` as the decode cap, and their
/// payloads through the record field lists below. The live appender
/// (`WriteAheadLog`), the compaction rewriter, recovery and the offline
/// verifier (`kgacc_store verify`) all use exactly these pieces, so a
/// rewritten log replays with no special cases and the verifier decodes
/// what recovery decodes.

namespace kgacc::walfmt {

/// File magic: identifies the format and its version in the first 8 bytes.
inline constexpr uint8_t kMagic[8] = {'k', 'g', 'a', 'c', 'W', 'A', 'L', '1'};
inline constexpr size_t kMagicSize = sizeof(kMagic);

/// Upper bound on one frame's payload. Real payloads are bytes to
/// kilobytes; anything near this limit in a length prefix is corruption,
/// not data, and must not drive a giant allocation during recovery.
inline constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 30;

/// The annotation store's frames, one record each: its frame type byte
/// (wire format — never renumber) and its payload layout, stated once as a
/// field list (see util/codec.h) that the append path, `Compact()` and
/// `Replay` all run.

/// One judgment. Compaction rewrites every live one with audit id 0 and a
/// fresh dense seq.
struct LabelRecord {
  static constexpr uint8_t kType = 1;
  uint64_t audit_id = 0;
  uint64_t seq = 0;
  uint64_t cluster = 0;
  uint64_t offset = 0;
  bool label = false;

  static void Fields(auto& r, auto& c) {
    c.Varint(r.audit_id);
    c.Varint(r.seq);
    c.Varint(r.cluster);
    c.Varint(r.offset);
    c.Bool(r.label);
    // The index packs (cluster, offset) into one 64-bit key.
    c.Check(r.cluster >> 40 == 0 && r.offset >> 24 == 0, [] {
      return Status::IoError(
          "annotation store: record key out of range (corrupt record)");
    });
  }
};

/// One audit's resume point; the latest per audit id wins. The snapshot
/// is opaque here (store/checkpoint.cc owns its layout) and decodes as a
/// view into the payload.
struct CheckpointRecord {
  static constexpr uint8_t kType = 2;
  uint64_t audit_id = 0;
  std::span<const uint8_t> snapshot;

  static void Fields(auto& r, auto& c) {
    c.Varint(r.audit_id);
    c.Bytes(r.snapshot);
  }
};

/// One tenant's quota ledger (`TenantBalance`). Totals are *cumulative*,
/// so replay is latest-wins per tenant and a frame lost to a torn tail is
/// healed by the next one.
struct LedgerRecord {
  static constexpr uint8_t kType = 4;
  std::string tenant;
  /// Oracle (inner-annotator) calls charged to this tenant.
  uint64_t oracle_spent = 0;
  /// Store bytes (annotation + checkpoint frames) charged to this tenant.
  uint64_t store_bytes = 0;

  static void Fields(auto& r, auto& c) {
    c.String(r.tenant);
    c.Varint(r.oracle_spent);
    c.Varint(r.store_bytes);
  }
};

/// The last frame of a log written by compaction: it seals the live set
/// with counts, the carried next_seq, and a chained CRC over every
/// preceding payload, so replay can prove the rewrite is complete and
/// untampered (frames appended *after* it are ordinary post-compaction
/// traffic).
struct TrailerRecord {
  static constexpr uint8_t kType = 3;
  /// 2 added the ledger count; a v1 trailer predates ledger frames, so its
  /// rewritten region holds none.
  uint64_t version = 2;
  uint64_t records = 0;
  uint64_t checkpoints = 0;
  uint64_t ledgers = 0;
  uint64_t next_seq = 0;
  uint32_t live_crc = 0;

  static void Fields(auto& r, auto& c) {
    c.Varint(r.version);
    c.Check(r.version == 1 || r.version == 2, [&] {
      return Status::IoError(
          "annotation store: unknown compaction trailer version " +
          std::to_string(r.version));
    });
    c.Varint(r.records);
    c.Varint(r.checkpoints);
    if (r.version >= 2) c.Varint(r.ledgers);
    c.Varint(r.next_seq);
    c.Fixed32(r.live_crc);
  }
};

}  // namespace kgacc::walfmt

#endif  // KGACC_STORE_LOG_FORMAT_H_
