#include "kgacc/util/codec.h"

#include <array>
#include <string>

namespace kgacc {

namespace {

/// Byte-at-a-time CRC32C table for the reflected Castagnoli polynomial.
/// Built once at first use; 1 KB, shared process-wide.
const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  const std::array<uint32_t, 256>& table = Crc32cTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

void ByteWriter::PutFrame(uint8_t type, std::span<const uint8_t> payload) {
  const size_t frame_start = buf_.size();
  U8(type);
  Varint(payload.size());
  Rest(payload);
  Fixed32(Crc32c(buf_.data() + frame_start, buf_.size() - frame_start));
}

Result<std::optional<DecodedFrame>> DecodeFrame(std::span<const uint8_t> data,
                                                uint64_t max_payload_bytes) {
  constexpr std::optional<DecodedFrame> kNeedMore;
  if (data.empty()) return kNeedMore;
  ByteReader reader(data.subspan(1));
  uint64_t len = 0;
  reader.Varint(len);
  if (!reader.ok()) {
    // A varint is at most 10 bytes: a failed read over fewer than that ran
    // out of input (the prefix is still in flight); over 10 or more it is
    // structurally impossible.
    if (data.size() - 1 < 10) return kNeedMore;
    return Status::OutOfRange("frame: bad length prefix (" +
                              reader.status().message() + ")");
  }
  if (len > max_payload_bytes) {
    return Status::OutOfRange(
        "frame: payload of " + std::to_string(len) + " bytes exceeds the " +
        std::to_string(max_payload_bytes) + "-byte limit");
  }
  if (reader.remaining() < len || reader.remaining() - len < 4) {
    return kNeedMore;  // Payload or CRC still in flight.
  }
  const size_t header = data.size() - reader.remaining();
  const std::span<const uint8_t> payload = data.subspan(header, len);
  uint32_t stored_crc = 0;
  ByteReader(data.subspan(header + len, 4)).Fixed32(stored_crc);
  if (Crc32c(data.data(), header + payload.size()) != stored_crc) {
    return Status::IoError("frame: checksum mismatch (torn or bit-flipped)");
  }
  return std::optional<DecodedFrame>(
      DecodedFrame{data[0], payload, header + payload.size() + 4});
}

}  // namespace kgacc
