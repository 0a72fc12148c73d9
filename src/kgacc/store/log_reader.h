#ifndef KGACC_STORE_LOG_READER_H_
#define KGACC_STORE_LOG_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kgacc/util/status.h"

/// \file log_reader.h
/// The store's one read path: recovery (`WriteAheadLog::Open`) and the
/// offline verifier both read a log file whole, in one streamed `pread`
/// pass, into an owned buffer. There is deliberately no mmap path: on a
/// 10^6-label (17.8 MB) log it opened only 1.05-1.08x faster, too little
/// to justify a second read path to keep equivalent.

namespace kgacc {

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

#endif  // KGACC_STORE_LOG_READER_H_
