#ifndef KGACC_UTIL_CODEC_H_
#define KGACC_UTIL_CODEC_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kgacc/util/status.h"

/// \file codec.h
/// Binary serialization primitives for the durable-store layer: LEB128
/// varints, zigzag signed encoding, fixed-width little-endian words,
/// CRC32C (Castagnoli) checksums, and the one typed-frame codec shared by
/// the store log and the kgaccd wire protocol. `ByteWriter` appends to a
/// growable buffer; `ByteReader` consumes a read-only span with bounds
/// checking and a sticky status, so a truncated or malformed record
/// surfaces as a status instead of undefined behavior. A record's layout is
/// written once, as a field list that both directions run (see
/// `EncodeFields`).
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
  void Extend(std::span<const uint8_t> data) {
    value_ = Crc32c(data.data(), data.size(), value_);
  }
  uint32_t value() const { return value_; }

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

/// Field lists: a record states its byte layout once, as a static member
///
///   static void Fields(auto& rec, auto& codec) {
///     codec.Varint(rec.audit_id);
///     codec.String(rec.kg_name);
///   }
///
/// that both directions run: `EncodeFields` hands it a `ByteWriter`, which
/// appends each field, and `DecodeFields` a `ByteReader`, which fills each
/// field from the payload. The two classes share one field vocabulary, so
/// an encoder and its decoder cannot disagree on a field's order, width or
/// presence. A field may depend on one decoded before it (a version gating
/// a later field); the reader-side checks (`Enum`, `Check`) are no-ops when
/// writing.

/// Append-only serialization buffer, and the encoding side of a field list.
class ByteWriter {
 public:
  void Clear() { buf_.clear(); }
  bool empty() const { return buf_.empty(); }
  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::span<const uint8_t> span() const { return {buf_.data(), buf_.size()}; }

  void U8(uint8_t v) { buf_.push_back(v); }
  void Bool(bool v) { buf_.push_back(v ? 1 : 0); }
  /// Fixed-width little-endian words.
  void Fixed32(uint32_t v) { Fixed(v); }
  void Fixed64(uint64_t v) { Fixed(v); }
  /// IEEE-754 bit pattern as a fixed 64-bit word (bit-exact round trip).
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Fixed64(bits);
  }
  /// Unsigned LEB128 (7 bits per byte, high bit = continuation).
  void Varint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(uint8_t(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(uint8_t(v));
  }
  /// Zigzag-mapped signed varint (small magnitudes stay small either sign).
  void Zigzag(int64_t v) { Varint((uint64_t(v) << 1) ^ uint64_t(v >> 63)); }
  /// Varint length prefix followed by the raw bytes.
  void String(std::string_view s) {
    Bytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }
  void Bytes(std::span<const uint8_t> data) {
    Varint(data.size());
    Rest(data);
  }
  /// Raw bytes with no prefix: as a field, the last one of its record.
  void Rest(std::span<const uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  /// An enum as one byte; `from_byte` is the reader's range check.
  template <typename E, typename FromByte>
  void Enum(E v, FromByte /*from_byte*/) {
    U8(static_cast<uint8_t>(v));
  }
  /// A varint count, then each element through its field list `each`.
  template <typename T, typename Each>
  void List(const std::vector<T>& v, size_t /*min_element_bytes*/,
            Each each) {
    Varint(v.size());
    for (const T& element : v) each(element, *this);
  }
  template <typename MakeError>
  void Check(bool /*holds*/, MakeError /*make_error*/) {}

  /// One complete frame: type, length prefix, payload, CRC32C.
  void PutFrame(uint8_t type, std::span<const uint8_t> payload);

 private:
  template <typename Word>
  void Fixed(Word v) {
    for (size_t i = 0; i < sizeof(Word); ++i) {
      buf_.push_back(uint8_t(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked consumer over a serialized byte span, and the decoding
/// side of a field list. The first failed read sticks in `status()` and
/// turns every later read into a no-op, so a decoder reads all of its
/// fields and checks once. The span is not owned; it must outlive the
/// reader (and any span a read hands back).
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return pos_ == data_.size(); }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  void U8(uint8_t& v) {
    if (Need(1, "u8")) v = data_[pos_++];
  }
  void Bool(bool& v) {
    uint8_t byte = 0;
    U8(byte);
    if (ok()) v = byte != 0;
  }
  void Fixed32(uint32_t& v) { Fixed(v, "fixed32"); }
  void Fixed64(uint64_t& v) { Fixed(v, "fixed64"); }
  /// IEEE-754 bit pattern (bit-exact round trip).
  void Double(double& v) {
    uint64_t bits = 0;
    Fixed64(bits);
    if (ok()) std::memcpy(&v, &bits, sizeof(v));
  }
  /// Unsigned LEB128; rejects encodings longer than 10 bytes or
  /// overflowing 64 bits.
  void Varint(uint64_t& v) {
    if (!ok()) return;
    uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Need(1, "varint")) return;
      const uint8_t byte = data_[pos_++];
      out |= uint64_t(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical overlong encodings of the final group.
        if (shift == 63 && byte > 1) {
          Fail(Status::OutOfRange("codec: varint overflows 64 bits"));
          return;
        }
        v = out;
        return;
      }
    }
    Fail(Status::OutOfRange("codec: varint longer than 10 bytes"));
  }
  template <typename Int>
  void Zigzag(Int& v) {
    uint64_t raw = 0;
    Varint(raw);
    if (ok()) v = static_cast<Int>(int64_t(raw >> 1) ^ -int64_t(raw & 1));
  }
  void String(std::string& v) {
    std::span<const uint8_t> raw;
    Bytes(raw);
    if (ok()) v.assign(reinterpret_cast<const char*>(raw.data()), raw.size());
  }
  /// Length-prefixed bytes, as a view into the input (no copy).
  void Bytes(std::span<const uint8_t>& v) {
    uint64_t n = 0;
    Varint(n);
    if (ok() && n > remaining()) Fail(Truncated("length-prefixed bytes"));
    if (ok()) v = Take(n);
  }
  /// Every byte left, as a view into the input.
  void Rest(std::span<const uint8_t>& v) {
    if (ok()) v = Take(remaining());
  }
  /// One byte through `from_byte`, which rejects values outside the enum.
  template <typename E, typename FromByte>
  void Enum(E& v, FromByte from_byte) {
    uint8_t byte = 0;
    U8(byte);
    if (!ok()) return;
    const auto decoded = from_byte(byte);
    Check(decoded.ok(), [&] { return decoded.status(); });
    if (ok()) v = *decoded;
  }
  /// A varint element count, then each element through its field list
  /// `each`. The count is rejected when the rest of the input cannot hold
  /// that many elements of at least `min_element_bytes` each, so a hostile
  /// count fails here instead of sizing an allocation.
  template <typename T, typename Each>
  void List(std::vector<T>& v, size_t min_element_bytes, Each each) {
    uint64_t n = 0;
    Varint(n);
    if (ok() && n > remaining() / min_element_bytes) {
      Fail(Status::OutOfRange(
          "codec: element count exceeds what the remaining input can hold"));
    }
    if (!ok()) return;
    v.assign(static_cast<size_t>(n), T{});
    for (T& element : v) {
      if (!ok()) return;
      each(element, *this);
    }
  }
  /// Fails the decode with `make_error()` unless `holds`.
  template <typename MakeError>
  void Check(bool holds, MakeError make_error) {
    if (ok() && !holds) Fail(make_error());
  }

  /// The first failure, or a trailing-bytes error when the reads did not
  /// consume the whole input.
  Status Finish(const char* what) const {
    if (!ok()) return status_;
    if (!empty()) {
      return Status::InvalidArgument(
          std::string("codec: trailing bytes after ") + what + " payload");
    }
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::OutOfRange(std::string("codec: truncated input reading ") +
                              what);
  }
  void Fail(Status status) {
    if (ok()) status_ = std::move(status);
  }
  /// True when `n` more bytes can be read; otherwise fails the decode.
  bool Need(size_t n, const char* what) {
    if (ok() && remaining() < n) Fail(Truncated(what));
    return ok();
  }
  template <typename Word>
  void Fixed(Word& v, const char* what) {
    if (!Need(sizeof(Word), what)) return;
    Word out = 0;
    for (size_t i = 0; i < sizeof(Word); ++i) {
      out |= Word(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(Word);
    v = out;
  }
  std::span<const uint8_t> Take(size_t n) {
    const std::span<const uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  Status status_;
};

/// Appends `rec`'s fields to `out`.
template <typename Record>
void EncodeFields(const Record& rec, ByteWriter* out) {
  Record::Fields(rec, *out);
}

/// Decodes a `Record` that must fill `payload` exactly; `what` names it in
/// the trailing-bytes error.
template <typename Record>
Result<Record> DecodeFields(std::span<const uint8_t> payload,
                            const char* what) {
  Record rec;
  ByteReader reader(payload);
  Record::Fields(rec, reader);
  KGACC_RETURN_IF_ERROR(reader.Finish(what));
  return rec;
}

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
