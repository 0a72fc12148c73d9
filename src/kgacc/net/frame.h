#ifndef KGACC_NET_FRAME_H_
#define KGACC_NET_FRAME_H_

#include <cstdint>
#include <span>
#include <vector>

#include "kgacc/util/status.h"

/// \file frame.h
/// Wire framing for the kgaccd protocol: the store log's typed frame
/// (util/codec.h, shared with store/wal.h rather than re-implemented)
/// used as a stream format. Every message travels as
///
///   [type u8][payload_len varint][payload bytes][crc32c fixed32]
///
/// with the checksum covering the type byte, the length prefix, and the
/// payload, so a bit flipped anywhere in transit — or a peer speaking a
/// different protocol — is detected at the frame boundary. The failure
/// unit is the *connection*, never the process: a torn or corrupt frame
/// fails `FrameAssembler::Next` with a descriptive status, the daemon
/// closes that connection, and the session behind it resumes from its
/// durable checkpoint over a fresh connection.
///
/// `ByteWriter::PutFrame` is the write side. `FrameAssembler` is the read
/// side: feed it whatever byte chunks the socket hands you (a frame may
/// arrive in many reads, or many frames in one) and pull complete frames
/// out. It enforces `kDefaultMaxFrameBytes` as the maximum payload length,
/// so a malicious or corrupt length prefix cannot make the daemon buffer
/// unbounded memory.

namespace kgacc {

/// Upper bound a conforming peer never exceeds; the assembler rejects
/// anything larger before buffering its payload.
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 20;

/// One decoded frame: the type byte and its payload (owned copy, valid
/// independently of the assembler's buffer).
struct NetFrame {
  uint8_t type = 0;
  std::vector<uint8_t> payload;
};

/// Incremental frame extractor over a byte stream. Not thread-safe; one
/// assembler per connection.
class FrameAssembler {
 public:
  /// Appends received bytes to the internal buffer.
  void Feed(std::span<const uint8_t> bytes);

  /// Extracts the next complete frame into `*frame`.
  ///   * ok, true  — one frame extracted; call again, more may be buffered.
  ///   * ok, false — the buffer holds only a partial frame; feed more bytes.
  ///   * error     — the stream is corrupt (truncated-impossible length
  ///     prefix, overlong frame, CRC mismatch). The error is sticky: the
  ///     stream has no recoverable frame boundary, so the connection must
  ///     be failed, not resynchronized.
  Result<bool> Next(NetFrame* frame);

  /// Bytes buffered but not yet consumed by a complete frame.
  size_t buffered_bytes() const { return buf_.size() - consumed_; }

  /// The sticky stream error, OK while the stream is healthy.
  const Status& stream_error() const { return stream_error_; }

 private:
  /// Drops the consumed prefix once it dominates the buffer (amortized
  /// compaction keeps Feed/Next O(bytes) overall).
  void Compact();

  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;
  Status stream_error_;
};

}  // namespace kgacc

#endif  // KGACC_NET_FRAME_H_
