#include "kgacc/store/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <vector>

#include "kgacc/store/log_format.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"

namespace kgacc {

namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

Result<std::vector<uint8_t>> ReadLogFile(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return IoError("cannot stat log", path);
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t read_so_far = 0;
  while (read_so_far < bytes.size()) {
    const ssize_t n = ::pread(fd, bytes.data() + read_so_far,
                              bytes.size() - read_so_far,
                              static_cast<off_t>(read_so_far));
    if (n < 0) return IoError("cannot read log", path);
    if (n == 0) break;  // Raced truncation; treat the shortfall as tail.
    read_so_far += static_cast<size_t>(n);
  }
  bytes.resize(read_so_far);
  return bytes;
}

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return IoError("cannot open log parent dir", dir);
  if (::fsync(dfd) != 0) {
    const Status status = IoError("cannot fsync log parent dir", dir);
    ::close(dfd);
    return status;
  }
  ::close(dfd);
  return Status::OK();
}

Result<size_t> WriteAheadLog::Scan(const std::string& path,
                                   std::span<const uint8_t> data,
                                   const ReplayFn& replay,
                                   uint64_t* frames_replayed) {
  if (data.size() < walfmt::kMagicSize ||
      std::memcmp(data.data(), walfmt::kMagic, walfmt::kMagicSize) != 0) {
    return Status::IoError("'" + path +
                           "' is not a kgacc WAL (bad or truncated magic)");
  }
  size_t valid_end = walfmt::kMagicSize;
  while (true) {
    // "Need more bytes" and corruption alike end the intact prefix: in a
    // file both are the torn tail.
    const Result<std::optional<DecodedFrame>> frame =
        DecodeFrame(data.subspan(valid_end), walfmt::kMaxPayloadBytes);
    if (!frame.ok() || !frame->has_value()) return valid_end;
    if (replay) {
      KGACC_RETURN_IF_ERROR(replay((*frame)->type, (*frame)->payload));
    }
    if (frames_replayed != nullptr) ++*frames_replayed;
    valid_end += (*frame)->size;
  }
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, const ReplayFn& replay, WalRecoveryInfo* info) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return IoError("cannot open WAL", path);

  WalRecoveryInfo recovery;
  size_t valid_end = 0;
  size_t file_size = 0;
  {
    // The buffer is released before the tail truncation below — recovery
    // never touches discarded bytes afterwards.
    Result<std::vector<uint8_t>> data = ReadLogFile(fd, path);
    if (!data.ok()) {
      ::close(fd);
      return data.status();
    }
    file_size = data->size();
    if (data->empty()) {
      // Fresh log: stamp the magic, then make the file itself and its
      // directory entry durable before handing out a writable log.
      if (::pwrite(fd, walfmt::kMagic, walfmt::kMagicSize, 0) !=
          static_cast<ssize_t>(walfmt::kMagicSize)) {
        ::close(fd);
        return IoError("cannot initialize WAL", path);
      }
      if (::fsync(fd) != 0) {
        ::close(fd);
        return IoError("cannot fsync new WAL", path);
      }
      const Status dir_status = FsyncParentDir(path);
      if (!dir_status.ok()) {
        ::close(fd);
        return dir_status;
      }
      valid_end = walfmt::kMagicSize;
      file_size = valid_end;
    } else {
      const Result<size_t> scanned =
          Scan(path, *data, replay, &recovery.frames_replayed);
      if (!scanned.ok()) {
        ::close(fd);
        return scanned.status();
      }
      valid_end = *scanned;
    }
  }
  if (valid_end < file_size) {
    recovery.truncated_tail = true;
    recovery.bytes_discarded = file_size - valid_end;
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      ::close(fd);
      return IoError("cannot truncate torn WAL tail", path);
    }
    // The truncation must be durable before new frames land after it: a
    // crash that resurrects the torn tail under fresh appends would
    // interleave garbage mid-log.
    if (::fsync(fd) != 0) {
      ::close(fd);
      return IoError("cannot fsync truncated WAL", path);
    }
    const Status dir_status = FsyncParentDir(path);
    if (!dir_status.ok()) {
      ::close(fd);
      return dir_status;
    }
  }
  recovery.bytes_kept = valid_end;
  if (info != nullptr) *info = recovery;

  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    return IoError("cannot seek WAL", path);
  }
  std::FILE* file = ::fdopen(fd, "r+b");
  if (file == nullptr) {
    ::close(fd);
    return IoError("cannot buffer WAL", path);
  }
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return IoError("cannot seek WAL", path);
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, file, valid_end));
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WriteAheadLog::MarkSticky(Status status) {
  if (sticky_.ok()) sticky_ = status;
  return status;
}

Status WriteAheadLog::AppendFrame(uint8_t type,
                                  std::span<const uint8_t> payload) {
  if (!sticky_.ok()) return sticky_;
  if (payload.size() > walfmt::kMaxPayloadBytes) {
    return Status::InvalidArgument("WAL frame payload exceeds 1 GiB");
  }
  if (FailpointHit("wal.append")) {
    return MarkSticky(
        Status::IoError("injected WAL append failure (failpoint wal.append)"));
  }
  // Assemble the whole frame first so a partial write can only tear the
  // file at a frame boundary the CRC scan detects, never interleave.
  ByteWriter frame;
  frame.PutFrame(type, payload);
  if (FailpointHit("wal.append.torn")) {
    // Write a genuine partial frame so recovery exercises the torn-tail
    // truncation path, then sticky-fail like a real mid-write crash.
    const size_t torn = frame.size() / 2;
    std::fwrite(frame.bytes().data(), 1, torn, file_);
    std::fflush(file_);
    return MarkSticky(Status::IoError(
        "injected torn WAL append (failpoint wal.append.torn)"));
  }
  if (std::fwrite(frame.bytes().data(), 1, frame.size(), file_) !=
      frame.size()) {
    return MarkSticky(IoError("short write to WAL", path_));
  }
  ++unflushed_frames_;
  size_bytes_ += frame.size();
  return Status::OK();
}

Status WriteAheadLog::Append(uint8_t type, std::span<const uint8_t> payload) {
  KGACC_RETURN_IF_ERROR(AppendFrame(type, payload));
  return Flush();  // A failed flush already marked the log sticky.
}

Status WriteAheadLog::Flush() {
  if (!sticky_.ok()) return sticky_;
  if (std::fflush(file_) != 0) {
    return MarkSticky(IoError("cannot flush WAL", path_));
  }
  // Buffered frames are settled: they now survive a process crash.
  frames_appended_ += unflushed_frames_;
  unflushed_frames_ = 0;
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (!sticky_.ok()) return sticky_;
  KGACC_RETURN_IF_ERROR(Flush());
  if (FailpointHit("wal.sync")) {
    return MarkSticky(
        Status::IoError("injected WAL fsync failure (failpoint wal.sync)"));
  }
  if (::fsync(::fileno(file_)) != 0) {
    return MarkSticky(IoError("cannot fsync WAL", path_));
  }
  return Status::OK();
}

}  // namespace kgacc
