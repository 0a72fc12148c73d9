// Seeded mutation fuzzing of every kgaccd message body, through the one
// decoder each message has (`Decode<Msg>`, its field list run by a
// `ByteReader`). One non-default instance of each of the 14 messages is
// mutated with fixed seeds:
//
//   * truncation of the payload to a strict prefix,
//   * bytes appended after the payload,
//   * a string length or list count inflated to a huge claim,
//   * one to three bit flips anywhere in the frame,
//   * a few payload bytes overwritten with random values.
//
// The first four must be rejected with an error status (a bit flip is
// caught by the frame CRC). Overwritten bytes may still spell a valid
// message: a flipped double is just another double. Every mutant, of every
// kind, must decode without a crash or a hang, and the decode may allocate
// at most twice the input plus 64 KiB — a decoder trusting a hostile length
// would show up here.

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "kgacc/net/frame.h"
#include "kgacc/net/protocol.h"
#include "kgacc/util/alloc_counter.h"
#include "kgacc/util/codec.h"
#include "protocol_samples.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

/// Fixed allocations (status strings, small vectors) that do not scale
/// with the input.
constexpr uint64_t kFixedBytes = uint64_t{64} << 10;

/// A field-list writer that replaces the `target`-th length prefix (string,
/// byte string or list count, in field-list order) with `claim`, keeping
/// the data after it. `lengths()` reports how many such prefixes the
/// message has.
class InflatingWriter {
 public:
  InflatingWriter(ByteWriter* out, int target, uint64_t claim)
      : out_(out), target_(target), claim_(claim) {}

  void U8(uint8_t v) { out_->U8(v); }
  void Bool(bool v) { out_->Bool(v); }
  void Fixed32(uint32_t v) { out_->Fixed32(v); }
  void Double(double v) { out_->Double(v); }
  void Varint(uint64_t v) { out_->Varint(v); }
  void Zigzag(int64_t v) { out_->Zigzag(v); }
  void String(std::string_view v) {
    Length(v.size());
    out_->Rest({reinterpret_cast<const uint8_t*>(v.data()), v.size()});
  }
  void Bytes(std::span<const uint8_t> v) {
    Length(v.size());
    out_->Rest(v);
  }
  template <typename E, typename FromByte>
  void Enum(E v, FromByte from_byte) {
    out_->Enum(v, from_byte);
  }
  template <typename T, typename Each>
  void List(const std::vector<T>& v, size_t /*min_element_bytes*/,
            Each each) {
    Length(v.size());
    for (const T& element : v) each(element, *this);
  }
  template <typename MakeError>
  void Check(bool /*holds*/, MakeError /*make_error*/) {}

  int lengths() const { return seen_; }

 private:
  void Length(uint64_t real) {
    out_->Varint(seen_++ == target_ ? claim_ : real);
  }

  ByteWriter* out_;
  int target_;
  uint64_t claim_;
  int seen_ = 0;
};

template <typename Msg>
std::vector<uint8_t> Inflated(const Msg& m, int target, uint64_t claim,
                              int* lengths) {
  ByteWriter out;
  InflatingWriter writer(&out, target, claim);
  Msg::Fields(m, writer);
  *lengths = writer.lengths();
  return out.bytes();
}

/// Decodes `bytes` as one whole `Msg` frame — the path a peer's bytes take
/// — and reports the status and the bytes the decode allocated.
template <typename Msg>
Status DecodeWire(std::span<const uint8_t> bytes, uint64_t* allocated) {
  const uint64_t before = alloc_counter::Bytes();
  Status status;
  const auto frame = DecodeFrame(bytes, kDefaultMaxFrameBytes);
  if (!frame.ok()) {
    status = frame.status();
  } else if (!frame->has_value()) {
    status = Status::OutOfRange("incomplete frame");
  } else if ((*frame)->size != bytes.size() ||
             (*frame)->type != static_cast<uint8_t>(Msg::kType)) {
    status = Status::InvalidArgument("not one whole frame of this type");
  } else {
    status = Decode<Msg>((*frame)->payload).status();
  }
  *allocated = alloc_counter::Bytes() - before;
  return status;
}

template <typename Msg>
Status DecodeBody(std::span<const uint8_t> payload, uint64_t* allocated) {
  const uint64_t before = alloc_counter::Bytes();
  const Status status = Decode<Msg>(payload).status();
  *allocated = alloc_counter::Bytes() - before;
  return status;
}

constexpr int kMutationKinds = 5;
constexpr int kMutantsPerMessage = 400;

TEST(ProtocolFuzzTest, EveryMessageBodyRejectsMutantsWithBoundedAllocation) {
  int rejected = 0, accepted_garbage = 0, inflated = 0;
  samples::ForEach([&](const auto& msg, std::string_view /*hex*/) {
    using Msg = std::remove_cvref_t<decltype(msg)>;
    const uint8_t type = static_cast<uint8_t>(Msg::kType);
    SCOPED_TRACE(MessageTypeName(type));
    ByteWriter body;
    EncodeFields(msg, &body);
    const std::vector<uint8_t> payload = body.bytes();
    const std::vector<uint8_t> frame = FrameOf(msg);
    int lengths = 0;
    (void)Inflated(msg, -1, 0, &lengths);

    for (int i = 0; i < kMutantsPerMessage; ++i) {
      std::mt19937_64 rng(0x70726f74 + 1000 * uint64_t{type} + i);
      const int kind = i % kMutationKinds;
      SCOPED_TRACE("mutant " + std::to_string(i) + " kind " +
                   std::to_string(kind));
      std::vector<uint8_t> mutant;
      bool must_fail = true;
      bool whole_frame = false;
      switch (kind) {
        case 0:  // A strict prefix of the payload.
          mutant.assign(payload.begin(),
                        payload.begin() + rng() % payload.size());
          break;
        case 1: {  // Bytes after the payload.
          mutant = payload;
          const size_t extra = 1 + rng() % 16;
          for (size_t k = 0; k < extra; ++k) {
            mutant.push_back(static_cast<uint8_t>(rng()));
          }
          break;
        }
        case 2: {  // A huge string length or list count.
          if (lengths == 0) continue;
          const uint64_t claims[] = {uint64_t{1} << 20, uint64_t{1} << 32,
                                     uint64_t{1} << 40, uint64_t{1} << 62,
                                     ~uint64_t{0}};
          int ignored = 0;
          mutant = Inflated(msg, static_cast<int>(rng() % lengths),
                            claims[rng() % 5], &ignored);
          ++inflated;
          break;
        }
        case 3: {  // Bit flips anywhere in the frame: the CRC's to catch.
          mutant = frame;
          const int flips = 1 + static_cast<int>(rng() % 3);
          for (int k = 0; k < flips; ++k) {
            mutant[rng() % mutant.size()] ^=
                static_cast<uint8_t>(1u << (rng() % 8));
          }
          if (mutant == frame) continue;  // Two flips cancelled out.
          whole_frame = true;
          break;
        }
        default: {  // Overwritten payload bytes: may still be a message.
          mutant = payload;
          const int writes = 1 + static_cast<int>(rng() % 4);
          for (int k = 0; k < writes; ++k) {
            mutant[rng() % mutant.size()] = static_cast<uint8_t>(rng());
          }
          must_fail = false;
          break;
        }
      }

      uint64_t allocated = 0;
      const Status status = whole_frame
                                ? DecodeWire<Msg>(mutant, &allocated)
                                : DecodeBody<Msg>(mutant, &allocated);
      EXPECT_LE(allocated, 2 * mutant.size() + kFixedBytes);
      if (must_fail) {
        EXPECT_FALSE(status.ok());
      }
      if (status.ok()) {
        ++accepted_garbage;
      } else {
        ++rejected;
      }
    }
  });
  // The mix exercises both outcomes, and every message with a length field
  // was inflated.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted_garbage, 0);
  EXPECT_GT(inflated, 0);
}

TEST(ProtocolFuzzTest, AHugeTraceCountAllocatesNothingItCannotHold) {
  // The largest legitimate allocation a report body can drive: a trace of
  // as many points as the payload holds at 17 bytes each.
  AuditReportMsg report = samples::Report();
  report.result.trace.assign(3000, TracePoint{1, 0.5, 0.5});
  ByteWriter body;
  EncodeFields(report, &body);
  uint64_t allocated = 0;
  ASSERT_TRUE(DecodeBody<AuditReportMsg>(body.span(), &allocated).ok());
  EXPECT_LE(allocated, 2 * body.size() + kFixedBytes);

  int lengths = 0;
  (void)Inflated(report, -1, 0, &lengths);
  for (int target = 0; target < lengths; ++target) {
    int ignored = 0;
    const std::vector<uint8_t> hostile =
        Inflated(report, target, uint64_t{1} << 40, &ignored);
    EXPECT_FALSE(DecodeBody<AuditReportMsg>(hostile, &allocated).ok());
    EXPECT_LE(allocated, 2 * hostile.size() + kFixedBytes);
  }
}

}  // namespace
}  // namespace kgacc
