// Write-ahead log recovery semantics: intact frames replay in order; a
// torn or bit-flipped frame severs the chain — everything before it is
// kept, everything from it on is discarded and physically truncated — and
// appending after recovery produces a clean log again.

#include "kgacc/store/wal.h"

#include <unistd.h>

#include <cstdio>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/kgacc_wal_test_" + name + "_" +
         std::to_string(::getpid());
}

struct Frame {
  uint8_t type;
  std::vector<uint8_t> payload;
};

WriteAheadLog::ReplayFn Collect(std::vector<Frame>* frames) {
  return [frames](uint8_t type, std::span<const uint8_t> payload) {
    frames->push_back(Frame{type, {payload.begin(), payload.end()}});
    return Status::OK();
  };
}

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

/// Reads the raw file bytes.
std::vector<uint8_t> Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<uint8_t> data;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return data;
}

void Dump(const std::string& path, const std::vector<uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // An empty vector's data() may be null, which fwrite must not receive.
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  }
  std::fclose(f);
}

TEST(WalTest, AppendsReplayInOrderAcrossReopen) {
  const std::string path = TempPath("replay");
  std::remove(path.c_str());
  {
    std::vector<Frame> replayed;
    auto log = WriteAheadLog::Open(path, Collect(&replayed));
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(replayed.empty());
    ASSERT_TRUE((*log)->Append(1, Payload({1, 2, 3})).ok());
    ASSERT_TRUE((*log)->Append(2, Payload({})).ok());
    ASSERT_TRUE((*log)->Append(1, Payload({0xff})).ok());
    EXPECT_EQ((*log)->frames_appended(), 3u);
  }
  std::vector<Frame> replayed;
  WalRecoveryInfo info;
  auto log = WriteAheadLog::Open(path, Collect(&replayed), &info);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0].type, 1);
  EXPECT_EQ(replayed[0].payload, Payload({1, 2, 3}));
  EXPECT_EQ(replayed[1].type, 2);
  EXPECT_TRUE(replayed[1].payload.empty());
  EXPECT_EQ(replayed[2].type, 1);
  EXPECT_EQ(info.frames_replayed, 3u);
  EXPECT_FALSE(info.truncated_tail);
  EXPECT_EQ(info.bytes_discarded, 0u);
  std::remove(path.c_str());
}

TEST(WalTest, TornTailIsTruncatedAndAppendableAgain) {
  const std::string path = TempPath("torn");
  std::remove(path.c_str());
  {
    std::vector<Frame> replayed;
    auto log = WriteAheadLog::Open(path, Collect(&replayed));
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(1, Payload({10, 11})).ok());
    ASSERT_TRUE((*log)->Append(1, Payload({20, 21})).ok());
  }
  // Tear the file mid-frame: keep the first frame and a few bytes of the
  // second — what a crash mid-write leaves behind.
  std::vector<uint8_t> data = Slurp(path);
  const size_t full = data.size();
  data.resize(full - 3);
  Dump(path, data);
  std::vector<Frame> replayed;
  WalRecoveryInfo info;
  {
    auto log = WriteAheadLog::Open(path, Collect(&replayed), &info);
    ASSERT_TRUE(log.ok());
    ASSERT_EQ(replayed.size(), 1u);
    EXPECT_EQ(replayed[0].payload, Payload({10, 11}));
    EXPECT_TRUE(info.truncated_tail);
    EXPECT_GT(info.bytes_discarded, 0u);
    // Appending after recovery lands on a clean frame boundary.
    ASSERT_TRUE((*log)->Append(3, Payload({30})).ok());
  }
  replayed.clear();
  auto log = WriteAheadLog::Open(path, Collect(&replayed), &info);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[1].type, 3);
  EXPECT_FALSE(info.truncated_tail);
  std::remove(path.c_str());
}

TEST(WalTest, BitFlipSeversTheChainFromThatFrameOn) {
  const std::string path = TempPath("bitflip");
  std::remove(path.c_str());
  size_t first_frame_end = 0;
  {
    auto log = WriteAheadLog::Open(path, nullptr);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(1, Payload({1, 1, 1, 1})).ok());
    first_frame_end = Slurp(path).size();
    ASSERT_TRUE((*log)->Append(1, Payload({2, 2, 2, 2})).ok());
    ASSERT_TRUE((*log)->Append(1, Payload({3, 3, 3, 3})).ok());
  }
  // Flip one payload bit inside the *second* frame: the CRC must reject
  // it, and the intact third frame behind it is unreachable (standard WAL
  // semantics — the chain is severed at the first corruption).
  std::vector<uint8_t> data = Slurp(path);
  data[first_frame_end + 3] ^= 0x10;
  Dump(path, data);
  std::vector<Frame> replayed;
  WalRecoveryInfo info;
  auto log = WriteAheadLog::Open(path, Collect(&replayed), &info);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].payload, Payload({1, 1, 1, 1}));
  EXPECT_TRUE(info.truncated_tail);
  EXPECT_EQ(info.bytes_kept, first_frame_end);
  std::remove(path.c_str());
}

TEST(WalTest, GarbageAppendedToCleanLogIsDiscarded) {
  const std::string path = TempPath("garbage");
  std::remove(path.c_str());
  {
    auto log = WriteAheadLog::Open(path, nullptr);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(7, Payload({9})).ok());
  }
  std::vector<uint8_t> data = Slurp(path);
  for (int i = 0; i < 17; ++i) data.push_back(uint8_t(0xc0 + i));
  Dump(path, data);
  std::vector<Frame> replayed;
  WalRecoveryInfo info;
  auto log = WriteAheadLog::Open(path, Collect(&replayed), &info);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(info.truncated_tail);
  EXPECT_EQ(info.bytes_discarded, 17u);
  std::remove(path.c_str());
}

TEST(WalTest, NotAWalFileIsRejected) {
  const std::string path = TempPath("badmagic");
  Dump(path, {'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l', 'd'});
  auto log = WriteAheadLog::Open(path, nullptr);
  EXPECT_FALSE(log.ok());
  std::remove(path.c_str());
}

TEST(WalTest, ZeroLengthLogOpensClean) {
  const std::string path = TempPath("zerolen");
  Dump(path, {});  // An empty file: created, never written.
  std::vector<Frame> replayed;
  WalRecoveryInfo info;
  auto log = WriteAheadLog::Open(path, Collect(&replayed), &info);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(replayed.empty());
  EXPECT_FALSE(info.truncated_tail);
  // The open stamped the magic, so the log round-trips like any fresh one.
  ASSERT_TRUE((*log)->Append(1, Payload({42})).ok());
  log = WriteAheadLog::Open(path, Collect(&replayed), &info);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].payload, Payload({42}));
  std::remove(path.c_str());
}

TEST(WalTest, UnopenablePathIsADescriptiveIoError) {
  // A directory cannot be a log file; a missing parent cannot hold one.
  // (Permission-bit tests do not work here — CI runs as root.)
  for (const std::string& path :
       {testing::TempDir(),
        TempPath("no_such_dir") + "/sub/dir/log.wal"}) {
    auto log = WriteAheadLog::Open(path, nullptr);
    ASSERT_FALSE(log.ok());
    EXPECT_EQ(log.status().code(), StatusCode::kIoError);
    // The message names the path and carries the OS reason.
    EXPECT_NE(log.status().message().find(path), std::string::npos)
        << log.status().ToString();
    EXPECT_NE(log.status().message().find(": "), std::string::npos);
  }
}

TEST(WalTest, FailedSyncStickyRejectsAllLaterAppends) {
  const std::string path = TempPath("stickysync");
  std::remove(path.c_str());
  ScopedFailpoints armed("wal.sync=once");
  ASSERT_TRUE(armed.status().ok());
  auto log = WriteAheadLog::Open(path, nullptr);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(1, Payload({1})).ok());
  const Status failed = (*log)->Sync();
  ASSERT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ((*log)->sticky_error().code(), StatusCode::kIoError);
  // Every later operation returns the original error, file untouched: a
  // log whose write path failed once must not interleave frames after it.
  const std::vector<uint8_t> before = Slurp(path);
  EXPECT_EQ((*log)->Append(2, Payload({2})).ToString(), failed.ToString());
  EXPECT_EQ((*log)->Sync().ToString(), failed.ToString());
  EXPECT_EQ((*log)->Flush().ToString(), failed.ToString());
  EXPECT_EQ(Slurp(path), before);
  EXPECT_EQ((*log)->frames_appended(), 1u);
  // Reopening recovers: the failure was injected, the bytes are intact.
  std::vector<Frame> replayed;
  auto reopened = WriteAheadLog::Open(path, Collect(&replayed));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(replayed.size(), 1u);
  EXPECT_TRUE((*reopened)->sticky_error().ok());
  std::remove(path.c_str());
}

TEST(WalTest, InjectedAppendFailureIsStickyAndWritesNothing) {
  const std::string path = TempPath("stickyappend");
  std::remove(path.c_str());
  ScopedFailpoints armed("wal.append=once");
  ASSERT_TRUE(armed.status().ok());
  auto log = WriteAheadLog::Open(path, nullptr);
  ASSERT_TRUE(log.ok());
  const std::vector<uint8_t> before = Slurp(path);
  const Status failed = (*log)->Append(1, Payload({1}));
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ(Slurp(path), before);  // Failed before writing a byte.
  EXPECT_EQ((*log)->Append(1, Payload({1})).ToString(), failed.ToString());
  std::remove(path.c_str());
}

TEST(WalTest, InjectedTornAppendIsRecoveredByReopen) {
  const std::string path = TempPath("injtorn");
  std::remove(path.c_str());
  {
    ScopedFailpoints armed("wal.append.torn=times:1");
    ASSERT_TRUE(armed.status().ok());
    auto log = WriteAheadLog::Open(path, nullptr);
    ASSERT_TRUE(log.ok());
    ASSERT_EQ((*log)->Append(1, Payload({5, 6, 7})).code(),
              StatusCode::kIoError);
  }
  // The file holds a genuine partial frame; recovery truncates it and the
  // log is appendable again.
  std::vector<Frame> replayed;
  WalRecoveryInfo info;
  auto log = WriteAheadLog::Open(path, Collect(&replayed), &info);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(replayed.empty());
  EXPECT_TRUE(info.truncated_tail);
  EXPECT_GT(info.bytes_discarded, 0u);
  ASSERT_TRUE((*log)->Append(2, Payload({8})).ok());
  std::remove(path.c_str());
}

TEST(WalTest, ReplayCallbackErrorAbortsOpen) {
  const std::string path = TempPath("cberr");
  std::remove(path.c_str());
  {
    auto log = WriteAheadLog::Open(path, nullptr);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(1, Payload({1})).ok());
  }
  auto log = WriteAheadLog::Open(
      path, [](uint8_t, std::span<const uint8_t>) {
        return Status::IoError("replay rejected");
      });
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
