#ifndef KGACC_UTIL_CODEC_H_
#define KGACC_UTIL_CODEC_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kgacc/util/status.h"

/// \file codec.h
/// Binary serialization primitives for the durable-store layer: LEB128
/// varints, zigzag signed encoding, fixed-width little-endian words,
/// CRC32C (Castagnoli) checksums, and the one typed-frame codec shared by
/// the store log and the kgaccd wire protocol. `ByteWriter` appends to a
/// growable buffer; `ByteReader` consumes a read-only span with bounds
/// checking — every read returns a `Result`, so a truncated or malformed
/// record surfaces as a status instead of undefined behavior.
///
/// A frame is
///
///   [type u8][payload_len varint][payload bytes][crc32c fixed32]
///
/// with the checksum covering the type byte, the length prefix and the
/// payload. `ByteWriter::PutFrame` is its only encoder and `DecodeFrame`
/// its only decoder.
///
/// Doubles travel as their IEEE-754 bit pattern (fixed 64-bit words), so a
/// round trip is bit-exact — the property the checkpoint/resume machinery
/// rests on: a restored session must replay the identical floating-point
/// path, not one that agrees to a few ulps.

namespace kgacc {

/// CRC32C (Castagnoli polynomial, reflected 0x82F63B78) over `n` bytes,
/// chainable through `seed` (pass a previous call's return value to extend
/// the checksum across fragments). The WAL frames every record with it.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// Incremental CRC32C over a sequence of fragments — the running-checksum
/// form of the `seed` chaining above. A compacted store log seals itself
/// with one of these in its trailer frame: the rewriter extends the chain
/// over every live payload it writes, and replay re-derives the same chain
/// to prove the rewrite arrived complete and in order (per-frame CRCs catch
/// bit flips; the chain catches a lost, duplicated, or reordered frame).
class Crc32cChain {
 public:
  void Extend(const void* data, size_t n) { value_ = Crc32c(data, n, value_); }
  void Extend(std::span<const uint8_t> data) {
    Extend(data.data(), data.size());
  }
  uint32_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint32_t value_ = 0;
};

/// Encoded size of a varint.
inline constexpr uint64_t VarintLength(uint64_t v) {
  uint64_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Exact bytes one frame with `payload_size` payload bytes occupies: type
/// byte + length varint + payload + fixed32 CRC.
inline constexpr uint64_t FrameSize(uint64_t payload_size) {
  return 1 + VarintLength(payload_size) + payload_size + 4;
}

/// Append-only serialization buffer.
class ByteWriter {
 public:
  void Clear() { buf_.clear(); }
  bool empty() const { return buf_.empty(); }
  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::span<const uint8_t> span() const { return {buf_.data(), buf_.size()}; }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutBool(bool v) { buf_.push_back(v ? 1 : 0); }

  /// Fixed-width little-endian words.
  void PutFixed32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }
  void PutFixed64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }

  /// IEEE-754 bit pattern as a fixed 64-bit word (bit-exact round trip).
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed64(bits);
  }

  /// Unsigned LEB128 (7 bits per byte, high bit = continuation).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(uint8_t(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(uint8_t(v));
  }

  /// Zigzag-mapped signed varint (small magnitudes stay small either sign).
  void PutZigzag(int64_t v) {
    PutVarint((uint64_t(v) << 1) ^ uint64_t(v >> 63));
  }

  void PutBytes(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Varint length prefix followed by the raw bytes.
  void PutLengthPrefixed(std::span<const uint8_t> data) {
    PutVarint(data.size());
    PutBytes(data.data(), data.size());
  }
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutBytes(s.data(), s.size());
  }

  /// One complete frame: type, length prefix, payload, CRC32C.
  void PutFrame(uint8_t type, std::span<const uint8_t> payload);

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked consumer over a serialized byte span. The span is not
/// owned; it must outlive the reader (and any span returned by `Bytes`).
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return pos_ == data_.size(); }

  Result<uint8_t> U8() {
    if (remaining() < 1) return Truncated("u8");
    return data_[pos_++];
  }
  Result<bool> Bool() {
    KGACC_ASSIGN_OR_RETURN(const uint8_t v, U8());
    return v != 0;
  }
  Result<uint32_t> Fixed32() {
    if (remaining() < 4) return Truncated("fixed32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  Result<uint64_t> Fixed64() {
    if (remaining() < 8) return Truncated("fixed64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  Result<double> Double() {
    KGACC_ASSIGN_OR_RETURN(const uint64_t bits, Fixed64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<uint64_t> Varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) return Truncated("varint");
      const uint8_t byte = data_[pos_++];
      v |= uint64_t(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical overlong encodings of the final group.
        if (shift == 63 && byte > 1) {
          return Status::OutOfRange("codec: varint overflows 64 bits");
        }
        return v;
      }
    }
    return Status::OutOfRange("codec: varint longer than 10 bytes");
  }
  Result<int64_t> Zigzag() {
    KGACC_ASSIGN_OR_RETURN(const uint64_t v, Varint());
    return int64_t(v >> 1) ^ -int64_t(v & 1);
  }
  /// A varint element count, rejected when the rest of the input cannot
  /// hold that many elements of at least `min_element_bytes` each — so a
  /// hostile count fails here instead of sizing an allocation.
  Result<uint64_t> Count(size_t min_element_bytes) {
    KGACC_ASSIGN_OR_RETURN(const uint64_t n, Varint());
    if (n > remaining() / min_element_bytes) {
      return Status::OutOfRange(
          "codec: element count exceeds what the remaining input can hold");
    }
    return n;
  }
  /// A view of the next `n` raw bytes (no copy).
  Result<std::span<const uint8_t>> Bytes(size_t n) {
    if (remaining() < n) return Truncated("bytes");
    const std::span<const uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  Result<std::span<const uint8_t>> LengthPrefixed() {
    KGACC_ASSIGN_OR_RETURN(const uint64_t n, Varint());
    if (n > remaining()) return Truncated("length-prefixed bytes");
    return Bytes(size_t(n));
  }
  Result<std::string> String() {
    KGACC_ASSIGN_OR_RETURN(const std::span<const uint8_t> raw,
                           LengthPrefixed());
    return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
  }

 private:
  static Status Truncated(const char* what) {
    return Status::OutOfRange(std::string("codec: truncated input reading ") +
                              what);
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// One intact frame decoded from the front of a byte span.
struct DecodedFrame {
  uint8_t type = 0;
  /// A view into the decoded input (no copy).
  std::span<const uint8_t> payload;
  /// Bytes the whole frame occupies: `FrameSize(payload.size())`.
  size_t size = 0;
};

/// Decodes the frame at the front of `data`. Three outcomes:
///   * a frame — complete, and its CRC matches;
///   * nullopt — `data` is a strict prefix of a frame that may still be
///     valid ("need more bytes");
///   * an error — corruption: a length prefix that overflows 64 bits or
///     runs past 10 bytes, or a payload over `max_payload_bytes`
///     (kOutOfRange, decided from the prefix alone, before any payload
///     byte is needed), or a CRC mismatch (kIoError).
/// Never copies or buffers the payload. A stream reader waits on nullopt
/// and fails on an error; a log reader treats either as the torn tail.
Result<std::optional<DecodedFrame>> DecodeFrame(std::span<const uint8_t> data,
                                                uint64_t max_payload_bytes);

}  // namespace kgacc

#endif  // KGACC_UTIL_CODEC_H_
