#ifndef KGACC_TENANT_TENANT_H_
#define KGACC_TENANT_TENANT_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kgacc/store/annotation_store.h"
#include "kgacc/util/status.h"

/// \file tenant.h
/// Multi-tenant quota accounting for the audit daemon. Two pieces:
///
/// **`TenantRegistry`** — the static side: tenant id → configuration
/// (oracle-call budget, store-byte quota, scheduling weight, session and
/// inflight-step caps), loaded from a plain-text tenants file or left
/// *open* (any tenant admitted with unlimited defaults — the
/// single-tenant compatibility mode a daemon without `--tenants` runs in).
///
/// **`QuotaLedger`** — the dynamic side: durable per-tenant spend,
/// metered as typed `walfmt::LedgerRecord` frames in a CRC-framed store log
/// (the same format annotation records use, byte-accounted the same way).
/// Every frame carries the tenant's *cumulative* totals, so replay is
/// latest-wins and compaction folds a tenant's history into one live
/// frame; a SIGKILL'd daemon reopens the ledger and resumes with bitwise
/// identical balances. Budget *checks* belong to the caller (the daemon's
/// admission path) — the ledger only answers "what has this tenant spent".
///
/// The weighted deficit-round-robin scheduler that consumes the registry's
/// weights lives next door in `tenant/drr.h`.

namespace kgacc {

/// Per-tenant limits. Zero means unlimited for every cap — a default
/// constructed config admits everything, which is exactly what the open
/// registry hands out.
struct TenantConfig {
  std::string id;
  /// Total oracle (human/simulated annotator) calls this tenant may buy
  /// across all audits and KGs. Spend survives restarts via the ledger.
  uint64_t oracle_budget = 0;
  /// Total store bytes (annotation + checkpoint frames) this tenant may
  /// append across all per-KG stores.
  uint64_t store_byte_quota = 0;
  /// Deficit-round-robin weight: a weight-3 tenant gets 3x the step
  /// throughput of a weight-1 tenant on a contended worker. Minimum 1.
  uint32_t weight = 1;
  /// Concurrent open sessions (0 = bounded only by the daemon-wide cap).
  uint32_t max_sessions = 0;
  /// Steps queued or running at once across the tenant's sessions
  /// (0 = unbounded). Exceeding it is transient back-pressure (`Busy`),
  /// not a budget violation.
  uint32_t max_inflight_steps = 0;
};

/// Remaining allowance under a cap where 0 budget means unlimited.
inline uint64_t RemainingAllowance(uint64_t budget, uint64_t spent) {
  if (budget == 0) return std::numeric_limits<uint64_t>::max();
  return budget > spent ? budget - spent : 0;
}

/// Immutable tenant-id → config table. Thread-safe after construction.
class TenantRegistry {
 public:
  /// An *open* registry: every tenant id (after normalization) resolves to
  /// an unlimited default config. Daemon compatibility mode.
  TenantRegistry() = default;

  /// Parses a tenants file. One tenant per line:
  ///
  ///     # comment
  ///     alice  oracle_budget=500 store_quota=1048576 weight=3
  ///     bob    weight=1 max_sessions=2 max_inflight_steps=64
  ///     *      weight=1
  ///
  /// The first token is the tenant id (`[A-Za-z0-9_.-]+`, or `*` for the
  /// fallback config handed to tenants not listed); the rest are
  /// `key=value` pairs with unlisted keys rejected. Omitted caps are
  /// unlimited; `weight` defaults to 1 and must be >= 1. Without a `*`
  /// line, unknown tenants are rejected at Hello.
  static Result<TenantRegistry> Parse(const std::string& text);

  /// `Parse` over the contents of `path`.
  static Result<TenantRegistry> LoadFile(const std::string& path);

  /// Maps the empty tenant id (a client that never asked for one) to the
  /// reserved id "default", so ledger frames always carry a real id.
  static std::string Normalize(const std::string& tenant);

  /// The config governing `tenant` (normalized by the caller): an explicit
  /// entry, else the `*` fallback, else — in an open registry — the
  /// unlimited default. nullptr when the registry is closed and the tenant
  /// is unknown (admission must reject).
  const TenantConfig* Lookup(const std::string& tenant) const;

  /// Explicitly listed tenants (excludes the `*` fallback).
  const std::vector<TenantConfig>& tenants() const { return tenants_; }
  bool open() const { return open_; }

 private:
  std::vector<TenantConfig> tenants_;
  std::optional<TenantConfig> fallback_;
  /// True for the default-constructed compatibility registry.
  bool open_ = true;
  /// Returned by Lookup in an open registry; id patched per call is not
  /// needed — budget fields are what admission reads.
  TenantConfig open_default_;
};

/// Durable per-tenant spend over a dedicated `AnnotationStore` log. All
/// methods are thread-safe (the store serializes ledger appends). The
/// ledger file is an ordinary store log — `kgacc_store inspect` and
/// `verify` work on it unchanged.
class QuotaLedger {
 public:
  /// Opens (creating if absent) the ledger log at `path` and replays
  /// existing balances.
  static Result<std::unique_ptr<QuotaLedger>> Open(
      const std::string& path, const AnnotationStore::Options& options);
  static Result<std::unique_ptr<QuotaLedger>> Open(const std::string& path) {
    return Open(path, AnnotationStore::Options{});
  }

  /// Durably charges spend. The append is acknowledged only once the
  /// cumulative frame is settled in the log, so a balance the ledger
  /// reports is always one a restart reproduces.
  Status Charge(const std::string& tenant, uint64_t oracle_delta,
                uint64_t store_bytes_delta) {
    return store_->AppendTenantSpend(tenant, oracle_delta, store_bytes_delta);
  }

  /// Current balance; zeros when the tenant never spent.
  TenantBalance Balance(const std::string& tenant) const {
    return store_->TenantBalanceFor(tenant).value_or(
        TenantBalance{tenant, 0, 0});
  }

  /// Every tenant with recorded spend, id-sorted.
  std::vector<TenantBalance> Balances() const {
    return store_->TenantBalances();
  }

  Status Flush() { return store_->Flush(); }
  Status Sync() { return store_->Sync(); }
  /// Folds the ledger to one live frame per tenant.
  Status Compact() { return store_->Compact(); }

  AnnotationStore* store() { return store_.get(); }
  const AnnotationStore* store() const { return store_.get(); }

 private:
  explicit QuotaLedger(std::unique_ptr<AnnotationStore> store)
      : store_(std::move(store)) {}

  std::unique_ptr<AnnotationStore> store_;
};

}  // namespace kgacc

#endif  // KGACC_TENANT_TENANT_H_
