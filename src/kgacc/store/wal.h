#ifndef KGACC_STORE_WAL_H_
#define KGACC_STORE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kgacc/util/status.h"

/// \file wal.h
/// Append-only write-ahead log of typed, CRC-framed records — the durable
/// substrate of the annotation store (the `SimpleKvStore`-style WAL +
/// snapshot pattern). One file holds a magic header followed by frames:
///
///   [type u8][payload_len varint][payload bytes][crc32c fixed32]
///
/// where the checksum covers the type byte, the length prefix, and the
/// payload, so a flipped bit anywhere in a frame is detected (the format is
/// defined in store/log_format.h; frames are encoded and decoded by the
/// shared codec in util/codec.h). `Open` reads the whole file in one
/// `pread` pass (`ReadLogFile`), replays every valid frame through a
/// caller callback, then *physically truncates* a torn or corrupt tail so
/// the next append starts at a clean frame boundary — everything before the
/// first bad byte is kept, everything after is discarded (standard WAL
/// recovery: a corrupt frame severs the chain, later frames are
/// unreachable).
///
/// Two append granularities serve the store's group-commit queue:
/// `Append` writes one frame and flushes it (the single-writer path), while
/// `AppendFrame` only buffers the frame — a commit leader strings many
/// `AppendFrame`s together and settles them under one `Flush`/`Sync`, so a
/// batch of concurrent writers pays one fsync, not one each. Frames are
/// only counted as appended once flushed.
///
/// Failure semantics: any write, flush, or fsync failure puts the log in a
/// *sticky error state* — every later `Append`/`Flush`/`Sync` returns the
/// original error without touching the file. A WAL whose write path failed
/// once cannot be trusted to hold a frame boundary, so it refuses to append
/// rather than risk interleaving good frames after a torn one; callers
/// reopen (which truncates any torn tail) to recover. Fault-injection sites
/// for the chaos tests: `wal.append` (fail before writing), `wal.append.torn`
/// (write a partial frame, then fail), `wal.sync` (fail the fsync).

namespace kgacc {

/// What `WriteAheadLog::Open` found and did during recovery.
struct WalRecoveryInfo {
  /// Valid frames replayed to the callback.
  uint64_t frames_replayed = 0;
  /// Bytes of valid log kept (header + intact frames).
  uint64_t bytes_kept = 0;
  /// Torn/corrupt tail bytes discarded (0 for a clean log).
  uint64_t bytes_discarded = 0;
  /// True when a torn or corrupt tail was truncated away.
  bool truncated_tail = false;
  /// Always false: recovery has one `pread` path; kept for readers of it.
  bool used_mmap = false;
};

/// An append-only typed-record log bound to one file. Not internally
/// synchronized: the annotation store serializes writers through its
/// group-commit queue (exactly one commit leader touches the log at a
/// time), and standalone users keep the old one-writer discipline.
class WriteAheadLog {
 public:
  /// Replay callback: one call per valid frame, in log order. The payload
  /// span is only valid for the duration of the call. A non-OK return
  /// aborts the open (the log file is left untouched).
  using ReplayFn =
      std::function<Status(uint8_t type, std::span<const uint8_t> payload)>;

  /// Opens (creating if absent) the log at `path`, replays every intact
  /// frame through `replay`, truncates any torn/corrupt tail, and positions
  /// for appending. `info`, when given, receives the recovery accounting.
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& path, const ReplayFn& replay,
      WalRecoveryInfo* info = nullptr);

  /// Walks a whole log image read from `path` (`data` starts at the magic),
  /// replaying each intact frame through `replay` in order and counting it
  /// in `*frames_replayed` (each when given), and returns the offset one
  /// past the last intact frame: everything after it is a torn or corrupt
  /// tail. Fails when `data` lacks the magic or `replay` fails. Recovery
  /// and the offline verifier both scan here.
  static Result<size_t> Scan(const std::string& path,
                             std::span<const uint8_t> data,
                             const ReplayFn& replay,
                             uint64_t* frames_replayed);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one frame and flushes it to the operating system (a crash of
  /// this process can no longer lose it; media durability needs `Sync`).
  /// After any failure the log is sticky-failed and every later call
  /// returns the original error.
  Status Append(uint8_t type, std::span<const uint8_t> payload);

  /// Appends one frame into the stdio buffer *without* flushing — the
  /// group-commit building block. The frame is not durable (and not counted
  /// in `frames_appended`) until the next successful `Flush`/`Sync`.
  Status AppendFrame(uint8_t type, std::span<const uint8_t> payload);

  /// Flushes the stdio buffer to the OS.
  Status Flush();

  /// Flush + fsync: the frame survives power loss, not just a process kill.
  Status Sync();

  /// The error that sticky-failed this log; OK while the log is healthy.
  const Status& sticky_error() const { return sticky_; }

  const std::string& path() const { return path_; }
  uint64_t frames_appended() const { return frames_appended_; }

  /// Logical file size: recovered bytes plus every frame appended since
  /// (exact on-disk bytes — the store's space-amplification numerator).
  uint64_t size_bytes() const { return size_bytes_; }

 private:
  WriteAheadLog(std::string path, std::FILE* file, uint64_t size_bytes)
      : path_(std::move(path)), file_(file), size_bytes_(size_bytes) {}

  /// Records the first write-path failure and returns it.
  Status MarkSticky(Status status);

  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t frames_appended_ = 0;
  /// Frames written into the stdio buffer but not yet settled by a flush.
  uint64_t unflushed_frames_ = 0;
  uint64_t size_bytes_ = 0;
  Status sticky_;
};

/// The store's one read path: recovery (`WriteAheadLog::Open`) and the
/// offline verifier both read a log file whole, in one streamed `pread`
/// pass, into an owned buffer. There is deliberately no mmap path: on a
/// 10^6-label (17.8 MB) log it opened only 1.05-1.08x faster, too little
/// to justify a second read path to keep equivalent.
///
/// Reads the whole file behind `fd` (a readable regular file). A file that
/// shrinks mid-read yields the bytes read so far; the missing tail is then
/// just a torn tail to the frame scan.
Result<std::vector<uint8_t>> ReadLogFile(int fd, const std::string& path);

/// Fsyncs the directory containing `path`, making a just-created, renamed,
/// or truncated file's directory entry durable. Shared by WAL open (file
/// creation, torn-tail truncation) and compaction (the rename that installs
/// a rewritten log must itself survive power loss).
Status FsyncParentDir(const std::string& path);

}  // namespace kgacc

#endif  // KGACC_STORE_WAL_H_
