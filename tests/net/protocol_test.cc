#include "kgacc/net/protocol.h"

#include <cstdint>
#include <vector>

#include "kgacc/util/codec.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

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
  return EncodeAuditReport(m);
}

constexpr size_t kTraceCountFromEnd = 7;
constexpr size_t kStopReasonFromEnd = kTraceCountFromEnd + 3;

TEST(NetProtocolTest, AuditReportRoundTrips) {
  const std::vector<uint8_t> bytes = PlainReport();
  ASSERT_EQ(bytes[bytes.size() - kTraceCountFromEnd], 0u);
  ASSERT_EQ(bytes[bytes.size() - kStopReasonFromEnd],
            static_cast<uint8_t>(StopReason::kTripleCapReached));
  const auto decoded = DecodeAuditReport({bytes.data(), bytes.size()});
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
  huge.PutVarint(uint64_t{1} << 40);
  std::vector<uint8_t> hostile(bytes.begin(), bytes.begin() + at);
  hostile.insert(hostile.end(), huge.bytes().begin(), huge.bytes().end());
  hostile.insert(hostile.end(), bytes.begin() + at + 1, bytes.end());
  EXPECT_FALSE(DecodeAuditReport({hostile.data(), hostile.size()}).ok());
}

TEST(NetProtocolTest, AuditReportRejectsAnOutOfRangeStopReason) {
  std::vector<uint8_t> bytes = PlainReport();
  bytes[bytes.size() - kStopReasonFromEnd] = 200;
  EXPECT_FALSE(DecodeAuditReport({bytes.data(), bytes.size()}).ok());
}

}  // namespace
}  // namespace kgacc
