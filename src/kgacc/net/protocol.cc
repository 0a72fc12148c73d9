#include "kgacc/net/protocol.h"

#include <string>

namespace kgacc {

const char* MessageTypeName(uint8_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello: return "Hello";
    case MessageType::kHelloAck: return "HelloAck";
    case MessageType::kOpenAudit: return "OpenAudit";
    case MessageType::kAuditOpened: return "AuditOpened";
    case MessageType::kStepBatch: return "StepBatch";
    case MessageType::kIntervalUpdate: return "IntervalUpdate";
    case MessageType::kAuditReport: return "AuditReport";
    case MessageType::kCloseAudit: return "CloseAudit";
    case MessageType::kHeartbeat: return "Heartbeat";
    case MessageType::kHeartbeatAck: return "HeartbeatAck";
    case MessageType::kBusy: return "Busy";
    case MessageType::kError: return "Error";
    case MessageType::kDrain: return "Drain";
    case MessageType::kQuotaExceeded: return "QuotaExceeded";
  }
  return "Unknown";
}

Result<StatusCode> ErrorCodeFromByte(uint8_t byte) {
  if (byte == static_cast<uint8_t>(StatusCode::kOk) ||
      byte > static_cast<uint8_t>(StatusCode::kQuotaExceeded)) {
    return Status::InvalidArgument("error code byte " +
                                   std::to_string(int(byte)) +
                                   " is not a failure code");
  }
  return static_cast<StatusCode>(byte);
}

}  // namespace kgacc
