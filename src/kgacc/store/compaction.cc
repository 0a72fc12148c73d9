#include "kgacc/store/compaction.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "kgacc/store/annotation_store.h"
#include "kgacc/store/log_format.h"
#include "kgacc/store/wal.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"

/// \file compaction.cc
/// Size-tiered compaction for the annotation store, plus the offline log
/// verifier. `Compact()` is a member of `AnnotationStore` (declared in
/// annotation_store.h) but lives here with the rest of the rewrite
/// machinery.
///
/// The rewrite protocol, crash-safe at every phase:
///
///   1. quiesce   — take the commit lock and wait out the group-commit
///                  queue, so the index, checkpoints, and byte accounting
///                  are exactly in step with the log;
///   2. rewrite   — emit magic + every live annotation record (key-sorted,
///                  deterministic) + the latest checkpoint per audit id
///                  (id-sorted) + a trailer frame sealing counts, the
///                  carried next_seq, and a chained CRC over every payload,
///                  into `<path>.compact`;
///   3. sync      — fsync the temp file (a rename may not reorder ahead of
///                  the data it installs);
///   4. rename    — atomically install the rewrite over the live path;
///   5. dirsync   — fsync the parent directory, making the rename itself
///                  durable (the same reason WAL creation syncs the parent:
///                  a crash may otherwise resurrect the old directory entry
///                  — the pre-compaction log — under a store that already
///                  acknowledged the rewrite);
///   6. swap      — close the old (now anonymous) file and reopen the WAL
///                  handle over the installed log.
///
/// A crash or injected failure in phases 1-4 leaves the old log installed
/// and untouched (the stale temp is deleted at the next `Open`); from phase
/// 5 on the new log is installed and complete, so the swap proceeds even
/// when the directory sync fails (the error is still reported — the rename
/// durability hole is real — but the store keeps running on the new log).
/// Failpoints cover each failable phase: `store.compact.write`,
/// `store.compact.sync`, `store.compact.rename`, `store.compact.dirsync`.

namespace kgacc {

namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

Status AnnotationStore::Compact() {
  std::unique_lock<std::mutex> lock(commit_mu_);
  // Phase 1: quiesce. New writers block enqueueing (they need commit_mu_);
  // an in-flight leader finishes its batch and drains the queue. This
  // predicate is sufficient only because the *leader* runs every batch
  // member's index apply under the lock before clearing `leader_active_`
  // (see CommitFrame): there is no window where a settled frame is in the
  // log but missing from the index, so the snapshot below is always
  // exactly in step with the log. Were apply deferred to each follower, a
  // settled-but-unapplied record could be silently dropped from the
  // rewrite here — durably written, acknowledged, and gone on restart.
  commit_cv_.wait(lock,
                  [&] { return !leader_active_ && commit_queue_.empty(); });
  if (!log_lost_.ok()) return log_lost_;

  // Snapshot the live label set, key-sorted so the rewrite is
  // deterministic (byte-identical across runs and thread counts).
  std::vector<std::pair<uint64_t, bool>> live;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    shard.labeled.ForEach([&](uint64_t key) {
      live.emplace_back(key, shard.correct.contains(key));
    });
  }
  std::sort(live.begin(), live.end());

  // The latest checkpoint per audit and the cumulative ledger per tenant
  // are stable here (mutations run under commit_mu_); sorting the
  // registries by id makes the rewrite deterministic too.
  {
    std::lock_guard<std::mutex> checkpoint_lock(checkpoints_mu_);
    std::sort(checkpoints_.begin(), checkpoints_.end(),
              [](const CheckpointEntry& a, const CheckpointEntry& b) {
                return a.audit_id < b.audit_id;
              });
  }
  {
    std::lock_guard<std::mutex> ledger_lock(ledgers_mu_);
    std::sort(ledgers_.begin(), ledgers_.end(),
              [](const LedgerEntry& a, const LedgerEntry& b) {
                return a.balance.tenant < b.balance.tenant;
              });
  }

  // Phase 2: build the rewrite. Records carry audit id 0 (the rewrite owns
  // them) and fresh dense seqs; the pre-compaction next_seq travels in the
  // trailer so sequence numbers stay monotone across the swap.
  const uint64_t bytes_before = file_bytes_;
  const uint64_t carried_next_seq = next_seq_.load(std::memory_order_relaxed);
  ByteWriter out;
  out.Rest(walfmt::kMagic);
  // Every live payload extends the chained CRC the trailer seals.
  Crc32cChain chain;
  ByteWriter payload;
  const auto emit = [&](const auto& record) {
    payload.Clear();
    EncodeFields(record, &payload);
    chain.Extend(payload.span());
    out.PutFrame(record.kType, payload.span());
  };
  uint64_t seq = 0;
  for (const auto& [key, label] : live) {
    // (cluster, offset) unpacked from `Key`.
    emit(walfmt::LabelRecord{.seq = seq++,
                             .cluster = key >> 24,
                             .offset = key & ((uint64_t{1} << 24) - 1),
                             .label = label});
  }
  for (const CheckpointEntry& entry : checkpoints_) {
    emit(walfmt::CheckpointRecord{entry.audit_id, entry.snapshot});
  }
  for (const LedgerEntry& entry : ledgers_) emit(entry.balance);
  emit(walfmt::TrailerRecord{.records = live.size(),
                             .checkpoints = checkpoints_.size(),
                             .ledgers = ledgers_.size(),
                             .next_seq = carried_next_seq,
                             .live_crc = chain.value()});

  // Phases 2b-3: write and fsync the temp file. Any failure here deletes
  // the temp and leaves the old log the undisturbed source of truth.
  const std::string tmp = path_ + ".compact";
  ::unlink(tmp.c_str());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("cannot create compaction temp", tmp);
  Status phase;
  if (FailpointHit("store.compact.write")) {
    phase = Status::IoError(
        "injected compaction write failure (failpoint store.compact.write)");
  } else {
    size_t written = 0;
    while (written < out.size()) {
      const ssize_t n = ::write(fd, out.bytes().data() + written,
                                out.size() - written);
      if (n < 0) {
        phase = IoError("cannot write compaction temp", tmp);
        break;
      }
      written += static_cast<size_t>(n);
    }
  }
  if (phase.ok()) {
    if (FailpointHit("store.compact.sync")) {
      phase = Status::IoError(
          "injected compaction fsync failure (failpoint store.compact.sync)");
    } else if (::fsync(fd) != 0) {
      phase = IoError("cannot fsync compaction temp", tmp);
    }
  }
  ::close(fd);
  if (!phase.ok()) {
    ::unlink(tmp.c_str());
    return phase;
  }

  // Phase 4: atomic install.
  if (FailpointHit("store.compact.rename")) {
    ::unlink(tmp.c_str());
    return Status::IoError(
        "injected compaction rename failure (failpoint store.compact.rename)");
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const Status status = IoError("cannot install compacted log over", path_);
    ::unlink(tmp.c_str());
    return status;
  }

  // Phase 5: make the rename durable. Past the rename there is no going
  // back — the new log is what the path names — so a dirsync failure is
  // reported but the swap below still proceeds.
  Status dirsync;
  if (FailpointHit("store.compact.dirsync")) {
    dirsync = Status::IoError(
        "injected compaction dirsync failure (failpoint "
        "store.compact.dirsync)");
  } else {
    dirsync = FsyncParentDir(path_);
  }

  // Phase 6: swap the live WAL handle onto the installed log. The old
  // handle points at the unlinked pre-compaction inode; appending there
  // would acknowledge frames no future Open can see.
  log_.reset();
  Result<std::unique_ptr<WriteAheadLog>> reopened =
      WriteAheadLog::Open(path_, nullptr);
  if (!reopened.ok()) {
    // Should-not-happen (fd exhaustion class): the store has no log to
    // append to. Refuse every later write instead of losing labels.
    log_lost_ = Status::IoError(
        "compaction installed a new log but could not reopen it: " +
        reopened.status().ToString());
    return log_lost_;
  }
  log_ = std::move(*reopened);
  file_bytes_ = log_->size_bytes();
  garbage_bytes_ = 0;
  ++compaction_stats_.compactions;
  compaction_stats_.last_bytes_before = bytes_before;
  compaction_stats_.last_bytes_after = file_bytes_;
  compaction_stats_.last_records = live.size();
  compaction_stats_.last_checkpoints = checkpoints_.size();
  compaction_stats_.last_ledgers = ledgers_.size();
  return dirsync;
}

Result<StoreVerifyInfo> VerifyStoreLog(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("cannot open store log", path);
  const Result<std::vector<uint8_t>> data = ReadLogFile(fd, path);
  ::close(fd);
  if (!data.ok()) return data.status();

  // Frames are decoded by the same scan, and payloads by the same `Replay`,
  // that recovery runs — into a scratch store bound to no file, so
  // verifying never truncates or writes. A payload that fails to decode
  // despite a valid CRC, or a trailer that disagrees with the frames before
  // it, fails the scan.
  AnnotationStore replayed{AnnotationStore::Options()};
  KGACC_ASSIGN_OR_RETURN(
      const size_t valid_end,
      WriteAheadLog::Scan(
          path, *data,
          [&replayed](uint8_t type, std::span<const uint8_t> payload) {
            return replayed.Replay(type, payload);
          },
          /*frames_replayed=*/nullptr));

  StoreVerifyInfo info;
  info.records = replayed.stats_.records_replayed;
  info.checkpoints = replayed.stats_.checkpoints_replayed;
  info.ledgers = replayed.stats_.ledgers_replayed;
  info.trailers = replayed.stats_.trailers_replayed;
  info.compacted = info.trailers > 0;
  info.bytes_valid = valid_end;
  info.bytes_torn = data->size() - valid_end;
  info.clean_tail = info.bytes_torn == 0;
  return info;
}

}  // namespace kgacc
