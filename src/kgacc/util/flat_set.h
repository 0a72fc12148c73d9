#ifndef KGACC_UTIL_FLAT_SET_H_
#define KGACC_UTIL_FLAT_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "kgacc/util/random.h"

/// \file flat_set.h
/// Open-addressing hash set for 64-bit keys: power-of-two capacity, linear
/// probing, SplitMix64-mixed keys. One flat allocation, no per-node boxes,
/// cache-friendly probes — built for the distinct-triple/entity tracking on
/// the annotation hot path, where `std::unordered_set<uint64_t>` pays a node
/// allocation and a pointer chase per insert.
///
/// Growth is *incremental twice over*. When the load ceiling is hit, the
/// doubled table is first allocated raw and zeroed a few cache lines per
/// insert (a 2M-bucket table used to pay its ~2 ms memset inside one insert
/// — the last p99 spike in BENCH_step.json); only once fully zeroed does it
/// become the active table, at which point the retired table drains a
/// handful of buckets per insert into it. No single insert ever pays an
/// O(capacity) zeroing or an O(size) reinsertion.

namespace kgacc {

/// A set of uint64 keys. Insert-only plus clear(): the evaluation loop only
/// ever adds members and resets between runs, so erase is deliberately
/// unsupported (tombstones would slow every probe).
class FlatSet64 {
 public:
  FlatSet64() = default;

  /// Pre-sizes the table for `expected` keys without rehashing.
  explicit FlatSet64(size_t expected) { reserve(expected); }

  FlatSet64(const FlatSet64& other) { CopyFrom(other); }
  FlatSet64& operator=(const FlatSet64& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  // Moves must leave the source in a *usable* empty state: the raw-buffer
  // tables would otherwise strand non-zero capacity_/size_ fields pointing
  // at null storage (the previous std::vector storage reset itself).
  FlatSet64(FlatSet64&& other) noexcept { MoveFrom(other); }
  FlatSet64& operator=(FlatSet64&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }

  /// Inserts `key`; returns true when it was not already a member.
  /// Amortized O(1) with a worst-case single-insert cost of one raw table
  /// allocation plus `kZeroChunkBuckets` zeroed buckets plus
  /// `kMigrateBuckets` bucket moves — never a full memset or rehash.
  bool insert(uint64_t key) {
    // Slot value 0 marks "empty", so the zero key lives in a side flag.
    if (key == 0) {
      const bool fresh = !has_zero_;
      has_zero_ = true;
      size_ += fresh ? 1 : 0;
      return fresh;
    }
    if (capacity_ == 0) {
      slots_.reset(new uint64_t[kInitialCapacity]());
      capacity_ = kInitialCapacity;
      mask_ = kInitialCapacity - 1;
    } else if (staging_cap_ != 0) {
      AdvanceStagingZeroing();
    } else if ((used_ + pending_ + 1) * 4 > capacity_ * 3) {
      BeginStaging();
      AdvanceStagingZeroing();
    }
    if (pending_ > 0) MigrateSome();
    size_t i = Mix64(key) & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    // Keys not yet migrated still live in the retired table.
    if (pending_ > 0) {
      size_t j = Mix64(key) & old_mask_;
      while (old_[j] != 0) {
        if (old_[j] == key) return false;
        j = (j + 1) & old_mask_;
      }
    }
    slots_[i] = key;
    ++used_;
    ++size_;
    return true;
  }

  /// True when `key` is a member.
  bool contains(uint64_t key) const {
    if (key == 0) return has_zero_;
    if (capacity_ == 0) return false;
    size_t i = Mix64(key) & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == key) return true;
      i = (i + 1) & mask_;
    }
    if (pending_ > 0) {
      size_t j = Mix64(key) & old_mask_;
      while (old_[j] != 0) {
        if (old_[j] == key) return true;
        j = (j + 1) & old_mask_;
      }
    }
    return false;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits every member exactly once, in unspecified order (table order,
  /// which depends on the insertion history). Members still waiting in a
  /// retired mid-migration table are visited too — a key lives in exactly
  /// one of the two tables, and unmigrated keys sit at stored buckets the
  /// migration cursor has not reached yet. Used by the snapshot layer,
  /// which re-inserts the keys on restore (membership, not layout, is the
  /// serialized state).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) fn(uint64_t{0});
    for (size_t i = 0; i < capacity_; ++i) {
      if (slots_[i] != 0) fn(slots_[i]);
    }
    if (pending_ > 0) {
      for (size_t j = cursor_; j < old_cap_; ++j) {
        if (old_[j] != 0) fn(old_[j]);
      }
    }
  }

  /// Removes every member; keeps the current capacity. This is a deliberate
  /// bulk operation (one memset of the active table) — it runs between
  /// audits, not inside the per-insert hot path. A doubling in flight is
  /// abandoned: its buckets held no members yet.
  void clear() {
    if (capacity_ != 0) std::fill_n(slots_.get(), capacity_, uint64_t{0});
    old_.reset();
    old_cap_ = 0;
    old_mask_ = 0;
    pending_ = 0;
    cursor_ = 0;
    DiscardStaging();
    used_ = 0;
    size_ = 0;
    has_zero_ = false;
  }

  /// Ensures capacity for `expected` keys under the 3/4 load ceiling. An
  /// explicit reserve pays its one zeroing + rehash up front; inserts that
  /// stay below `expected` then never rehash (asserted by the flat_set
  /// tests).
  void reserve(size_t expected) {
    size_t target = kInitialCapacity;
    while (target * 3 < (expected + 1) * 4) target *= 2;
    if (target > capacity_) Rehash(target);
  }

  /// Current table capacity (always a power of two once allocated).
  size_t capacity() const { return capacity_; }

  /// True while a retired table still holds unmigrated keys (exposed for
  /// tests; growth leaves this state, a reserve or clear drains it).
  bool migrating() const { return pending_ > 0; }

  /// True while the next doubled table is still being zeroed chunk by
  /// chunk (exposed for tests; it becomes the active table once zeroed).
  bool zeroing() const { return staging_cap_ != 0; }

 private:
  static constexpr size_t kInitialCapacity = 16;

  /// Old-table buckets examined per insert during a migration. At 8, a
  /// retired table of C buckets drains within C/8 inserts, well before the
  /// next doubling (which is at least C/2 inserts away).
  static constexpr size_t kMigrateBuckets = 8;

  /// Staged-table buckets zeroed per insert while a doubling is being
  /// prepared: 512 buckets = one 4 KB page per insert. Zeroing the doubled
  /// table (2C buckets) therefore spans 2C/512 inserts, during which the
  /// active table's load rises at most 1/256 past the 3/4 ceiling — far
  /// from full, and the table stays probe-correct throughout.
  static constexpr size_t kZeroChunkBuckets = 512;

  /// Allocates the doubled table *uninitialized*; `AdvanceStagingZeroing`
  /// pays the memset in per-insert chunks.
  void BeginStaging() {
    staging_.reset(new uint64_t[capacity_ * 2]);
    staging_cap_ = capacity_ * 2;
    staging_zeroed_ = 0;
  }

  void AdvanceStagingZeroing() {
    size_t budget = kZeroChunkBuckets;
    // Backstop: should inserts somehow outpace the chunk schedule, finish
    // the zeroing now rather than let the active table approach full (a
    // full open-addressing table never terminates its probe loop).
    if (used_ + pending_ + 2 >= capacity_) budget = staging_cap_;
    const size_t chunk = std::min(budget, staging_cap_ - staging_zeroed_);
    std::fill_n(staging_.get() + staging_zeroed_, chunk, uint64_t{0});
    staging_zeroed_ += chunk;
    if (staging_zeroed_ == staging_cap_) Promote();
  }

  /// Swaps the fully zeroed staged table in: the active table retires and
  /// starts draining into the new one, `kMigrateBuckets` per insert.
  void Promote() {
    DrainOld();  // Backstop; a retired table normally drained long ago.
    old_ = std::move(slots_);
    old_cap_ = capacity_;
    old_mask_ = mask_;
    pending_ = used_;
    cursor_ = 0;
    used_ = 0;
    slots_ = std::move(staging_);
    capacity_ = staging_cap_;
    mask_ = capacity_ - 1;
    staging_cap_ = 0;
    staging_zeroed_ = 0;
    if (pending_ == 0) {
      old_.reset();
      old_cap_ = 0;
    }
  }

  void MigrateSome() {
    size_t budget = kMigrateBuckets;
    while (budget-- > 0 && cursor_ < old_cap_) {
      const uint64_t key = old_[cursor_++];
      if (key == 0) continue;
      size_t i = Mix64(key) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = key;
      ++used_;
      --pending_;
      if (pending_ == 0) break;
    }
    if (pending_ == 0) {
      old_.reset();
      old_cap_ = 0;
      cursor_ = 0;
    }
  }

  void DrainOld() {
    while (pending_ > 0) MigrateSome();
    old_.reset();
    old_cap_ = 0;
    cursor_ = 0;
  }

  void DiscardStaging() {
    staging_.reset();
    staging_cap_ = 0;
    staging_zeroed_ = 0;
  }

  /// Full (non-incremental) rehash to `target`; only reached through
  /// reserve(), where the caller asked to pay the cost up front.
  void Rehash(size_t target) {
    DrainOld();
    DiscardStaging();
    std::unique_ptr<uint64_t[]> retired = std::move(slots_);
    const size_t retired_cap = capacity_;
    slots_.reset(new uint64_t[target]());
    capacity_ = target;
    mask_ = target - 1;
    for (size_t idx = 0; idx < retired_cap; ++idx) {
      const uint64_t key = retired[idx];
      if (key == 0) continue;
      size_t i = Mix64(key) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  void MoveFrom(FlatSet64& other) noexcept {
    slots_ = std::move(other.slots_);
    capacity_ = other.capacity_;
    mask_ = other.mask_;
    old_ = std::move(other.old_);
    old_cap_ = other.old_cap_;
    old_mask_ = other.old_mask_;
    pending_ = other.pending_;
    cursor_ = other.cursor_;
    staging_ = std::move(other.staging_);
    staging_cap_ = other.staging_cap_;
    staging_zeroed_ = other.staging_zeroed_;
    used_ = other.used_;
    size_ = other.size_;
    has_zero_ = other.has_zero_;
    other.capacity_ = 0;
    other.mask_ = 0;
    other.old_cap_ = 0;
    other.old_mask_ = 0;
    other.pending_ = 0;
    other.cursor_ = 0;
    other.staging_cap_ = 0;
    other.staging_zeroed_ = 0;
    other.used_ = 0;
    other.size_ = 0;
    other.has_zero_ = false;
  }

  void CopyFrom(const FlatSet64& other) {
    // Allocate both replacement tables before mutating any member, so an
    // allocation failure mid-copy leaves this set in its pre-copy state
    // instead of stranding live counters over surrendered storage.
    std::unique_ptr<uint64_t[]> new_slots;
    if (other.capacity_ != 0) {
      new_slots.reset(new uint64_t[other.capacity_]);
      std::copy_n(other.slots_.get(), other.capacity_, new_slots.get());
    }
    std::unique_ptr<uint64_t[]> new_old;
    if (other.old_cap_ != 0) {
      new_old.reset(new uint64_t[other.old_cap_]);
      std::copy_n(other.old_.get(), other.old_cap_, new_old.get());
    }
    slots_ = std::move(new_slots);
    capacity_ = other.capacity_;
    mask_ = other.mask_;
    old_ = std::move(new_old);
    old_cap_ = other.old_cap_;
    old_mask_ = other.old_mask_;
    pending_ = other.pending_;
    cursor_ = other.cursor_;
    // A staged table holds no members (and is partially uninitialized);
    // the copy simply restarts the doubling preparation when it next hits
    // the load ceiling.
    DiscardStaging();
    used_ = other.used_;
    size_ = other.size_;
    has_zero_ = other.has_zero_;
  }

  std::unique_ptr<uint64_t[]> slots_;  // Active table; 0 = empty slot.
  size_t capacity_ = 0;
  size_t mask_ = 0;
  std::unique_ptr<uint64_t[]> old_;  // Retired table, draining into slots_.
  size_t old_cap_ = 0;
  size_t old_mask_ = 0;
  size_t pending_ = 0;  // Keys still waiting in old_.
  size_t cursor_ = 0;   // Next old_ bucket to migrate.
  std::unique_ptr<uint64_t[]> staging_;  // Doubled table being zeroed.
  size_t staging_cap_ = 0;
  size_t staging_zeroed_ = 0;
  size_t used_ = 0;  // Non-zero keys stored in slots_.
  size_t size_ = 0;  // Members, including the zero key.
  bool has_zero_ = false;
};

}  // namespace kgacc

#endif  // KGACC_UTIL_FLAT_SET_H_
