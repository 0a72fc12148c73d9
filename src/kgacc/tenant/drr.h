#ifndef KGACC_TENANT_DRR_H_
#define KGACC_TENANT_DRR_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

/// \file drr.h
/// Weighted deficit-round-robin over per-tenant FIFO queues — the fairness
/// half of the tenant subsystem (quotas live in tenant.h). Replaces the
/// daemon's per-worker FIFO dispatch: a heavy tenant's backlog no longer
/// delays a light tenant's next batch by the whole backlog, only by at
/// most one batch in flight plus the rotation.
///
/// Classic DRR (Shreedhar & Varghese): each tenant queue holds a *deficit*
/// counter; when the rotation reaches a backlogged tenant for a fresh
/// visit, the counter grows by `quantum x weight`; the tenant then serves
/// items while the deficit covers each item's cost, and yields the
/// rotation once the head costs more than the remaining deficit. An
/// emptied queue forfeits its deficit (standard DRR — credit never
/// accumulates while idle, so a sleeping tenant cannot burst past its
/// weight later). Costs are caller-defined (the daemon uses steps per
/// batch, and 1 per audit open); weighted long-run shares converge to weight ratios whenever
/// every tenant stays backlogged.
///
/// Not thread-safe: the daemon instantiates one scheduler per worker and
/// drives it from the poll thread only.

namespace kgacc {

/// One schedulable unit: an opaque caller id plus its service cost.
struct DrrItem {
  uint64_t id = 0;
  uint64_t cost = 1;
};

/// What `DrrScheduler::RemoveId` dropped.
struct DrrRemoved {
  size_t items = 0;
  uint64_t cost = 0;
};

class DrrScheduler {
 public:
  /// `quantum` is the per-visit credit a weight-1 tenant earns; pick the
  /// typical item cost so one visit usually serves about `weight` items.
  explicit DrrScheduler(uint64_t quantum) : quantum_(quantum < 1 ? 1 : quantum) {}
  DrrScheduler() : DrrScheduler(1) {}

  /// Enqueues an item on `tenant`'s queue (FIFO within the tenant).
  /// `weight` updates the tenant's weight (normally constant per tenant).
  void Push(const std::string& tenant, uint32_t weight, DrrItem item);

  /// The next item under the DRR policy, or nullopt when idle.
  std::optional<DrrItem> Pop();

  /// Queued items across all tenants.
  size_t size() const { return total_items_; }
  bool empty() const { return total_items_ == 0; }

  /// Queued items for one tenant (0 when unknown).
  size_t QueuedFor(const std::string& tenant) const;

  /// Sum of queued costs for one tenant — the daemon's inflight-step
  /// accounting counts queued work as inflight.
  uint64_t QueuedCostFor(const std::string& tenant) const;

  /// Drops every queued item with the given id (a detached or evicted
  /// session's batches), reporting what was removed so the caller can
  /// return admission slots.
  DrrRemoved RemoveId(uint64_t id);

  /// Drops every queued item (daemon drain).
  void Clear();

 private:
  struct TenantQueue {
    std::string tenant;
    uint32_t weight = 1;
    std::deque<DrrItem> ready;
    /// Unspent service credit, valid only while backlogged.
    int64_t deficit = 0;
    /// True when the next visit should add `quantum x weight` — set on
    /// first arrival and whenever the rotation yields past this tenant.
    bool fresh = true;
  };

  TenantQueue* FindOrCreate(const std::string& tenant, uint32_t weight);
  void Advance() { cursor_ = (cursor_ + 1) % rotation_.size(); }

  uint64_t quantum_;
  /// Stable-ordered tenant queues; rotation_ indexes into it. Tenants are
  /// never removed (a daemon hosts a bounded handful).
  std::vector<TenantQueue> queues_;
  std::vector<size_t> rotation_;
  size_t cursor_ = 0;
  size_t total_items_ = 0;
};

}  // namespace kgacc

#endif  // KGACC_TENANT_DRR_H_
