#include "kgacc/net/frame.h"

#include <optional>
#include <string>

#include "kgacc/util/codec.h"

namespace kgacc {

void FrameAssembler::Feed(std::span<const uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void FrameAssembler::Compact() {
  if (consumed_ == 0) return;
  // Compact when the dead prefix dominates: each byte is moved O(1) times
  // amortized, and steady-state small frames stay in a small buffer.
  if (consumed_ >= 4096 || consumed_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

Result<bool> FrameAssembler::Next(NetFrame* frame) {
  if (!stream_error_.ok()) return stream_error_;
  // The cap applies to the length prefix alone, so an overlong frame fails
  // here before its payload is ever buffered.
  const Result<std::optional<DecodedFrame>> decoded = DecodeFrame(
      std::span<const uint8_t>(buf_).subspan(consumed_),
      kDefaultMaxFrameBytes);
  if (!decoded.ok()) {
    stream_error_ = decoded.status();
    return stream_error_;
  }
  if (!decoded->has_value()) return false;  // Frame still in flight.
  const DecodedFrame& next = **decoded;
  frame->type = next.type;
  frame->payload.assign(next.payload.begin(), next.payload.end());
  consumed_ += next.size;
  Compact();
  return true;
}

}  // namespace kgacc
