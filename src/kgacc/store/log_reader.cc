#include "kgacc/store/log_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

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

}  // namespace kgacc
