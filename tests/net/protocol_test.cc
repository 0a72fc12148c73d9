#include "kgacc/net/protocol.h"

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "kgacc/util/codec.h"
#include "protocol_samples.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

template <typename Msg>
std::vector<uint8_t> PayloadOf(const Msg& m) {
  ByteWriter w;
  EncodeFields(m, &w);
  return w.bytes();
}

TEST(NetProtocolTest, EveryMessageMatchesItsGoldenFrameAndRoundTrips) {
  int types = 0;
  samples::ForEach([&types](const auto& msg, std::string_view hex) {
    using Msg = std::remove_cvref_t<decltype(msg)>;
    SCOPED_TRACE(MessageTypeName(static_cast<uint8_t>(Msg::kType)));
    ++types;
    const std::vector<uint8_t> golden = samples::FromHex(hex);
    EXPECT_EQ(FrameOf(msg), golden);

    const auto frame = DecodeFrame(golden, kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok() && frame->has_value());
    EXPECT_EQ((*frame)->type, static_cast<uint8_t>(Msg::kType));
    EXPECT_EQ((*frame)->size, golden.size());
    const Result<Msg> decoded = Decode<Msg>((*frame)->payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    // Every field is on the wire, so re-encoding the decoded message
    // reproduces the frame only if each field survived bit for bit.
    EXPECT_EQ(FrameOf(*decoded), golden);
  });
  EXPECT_EQ(types, 14);
}

TEST(NetProtocolTest, ErrorCarriesOnlyFailureCodes) {
  ErrorMsg err;
  err.message = "boom";
  for (int code = 0; code <= 255; ++code) {
    std::vector<uint8_t> payload = PayloadOf(err);
    payload[0] = static_cast<uint8_t>(code);
    const Result<ErrorMsg> decoded = Decode<ErrorMsg>(payload);
    const bool failure =
        code >= 1 && code <= static_cast<int>(StatusCode::kQuotaExceeded);
    ASSERT_EQ(decoded.ok(), failure) << "code byte " << code;
    // A decoded Error always converts to a non-OK status.
    if (failure) {
      EXPECT_FALSE(decoded->ToStatus().ok());
    }
  }
}

TEST(NetProtocolTest, HelloWithoutATenantIsTruncated) {
  // Magic and version only: the v1 shape, which no daemon admits.
  ByteWriter v1;
  v1.Fixed32(kNetMagic);
  v1.Varint(1);
  EXPECT_FALSE(Decode<HelloMsg>(v1.span()).ok());
}

/// An AuditReport whose result carries no trace and whose trailing fields
/// are all zero or empty, so its tail has a fixed layout: the result's
/// stop reason, degraded flag, empty note, then the trace count (one zero
/// byte), then six one-byte trailer fields.
std::vector<uint8_t> PlainReport() {
  AuditReportMsg m;
  m.audit_id = 7;
  m.design_name = "SRS";
  m.dataset_name = "kg";
  m.result.mu = 0.9;
  m.result.interval = {0.85, 0.95};
  m.result.stop_reason = StopReason::kTripleCapReached;
  return PayloadOf(m);
}

constexpr size_t kTraceCountFromEnd = 7;
constexpr size_t kStopReasonFromEnd = kTraceCountFromEnd + 3;

TEST(NetProtocolTest, AuditReportRoundTrips) {
  const std::vector<uint8_t> bytes = PlainReport();
  ASSERT_EQ(bytes[bytes.size() - kTraceCountFromEnd], 0u);
  ASSERT_EQ(bytes[bytes.size() - kStopReasonFromEnd],
            static_cast<uint8_t>(StopReason::kTripleCapReached));
  const auto decoded = Decode<AuditReportMsg>(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->audit_id, 7u);
  EXPECT_EQ(decoded->result.stop_reason, StopReason::kTripleCapReached);
  EXPECT_EQ(decoded->result.interval.upper, 0.95);
}

TEST(NetProtocolTest, AuditReportRejectsAHugeTraceCount) {
  // 2^40 trace points from the wire must fail the bounded count read
  // instead of reserving terabytes.
  const std::vector<uint8_t> bytes = PlainReport();
  const size_t at = bytes.size() - kTraceCountFromEnd;
  ByteWriter huge;
  huge.Varint(uint64_t{1} << 40);
  std::vector<uint8_t> hostile(bytes.begin(), bytes.begin() + at);
  hostile.insert(hostile.end(), huge.bytes().begin(), huge.bytes().end());
  hostile.insert(hostile.end(), bytes.begin() + at + 1, bytes.end());
  EXPECT_FALSE(Decode<AuditReportMsg>(hostile).ok());
}

TEST(NetProtocolTest, AuditReportRejectsAnOutOfRangeStopReason) {
  std::vector<uint8_t> bytes = PlainReport();
  bytes[bytes.size() - kStopReasonFromEnd] = 200;
  EXPECT_FALSE(Decode<AuditReportMsg>(bytes).ok());
}

}  // namespace
}  // namespace kgacc
