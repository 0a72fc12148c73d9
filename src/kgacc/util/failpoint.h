#ifndef KGACC_UTIL_FAILPOINT_H_
#define KGACC_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "kgacc/util/status.h"

/// \file failpoint.h
/// Deterministic fault injection. A *failpoint* is a named site in the code
/// ("wal.append", "store.checkpoint", ...) that asks `FailpointHit(name)`
/// whether this particular execution should fail; a central registry maps
/// names to *policies* armed at runtime from a spec string:
///
///   spec    := point (';' point)*
///   point   := name '=' policy
///   policy  := 'off'                 never fires (disarms the point)
///            | 'once'                fire on the first evaluation, then heal
///            | 'times:N'             fire on the first N evaluations
///            | 'every:N'             fire on every Nth evaluation (N >= 1)
///            | 'prob:P[:seed:S]'     fire with probability P from a private
///                                    seeded RNG (default seed: name hash)
///            | 'sleep:MS'            inject MS milliseconds of latency,
///                                    never fire
///
/// e.g. `wal.sync=once;store.append=prob:0.25:seed:7;audit.kill=every:5`.
/// Policies are deterministic given the spec (the `prob` RNG is private and
/// seeded), so a chaos schedule replays exactly — the property the chaos
/// tests' byte-identical-resume assertions rest on.
///
/// Cost model: when nothing is armed anywhere, `FailpointHit` is one
/// relaxed atomic load and a branch — cheap enough for the durability hot
/// paths (per-annotation WAL appends). Armed evaluations take a registry
/// mutex; fault-injection runs are not performance runs.
///
/// The registry is process-global. Tests must disarm what they arm
/// (`ScopedFailpoints` does it via RAII); sites evaluate through the
/// registry only while at least one point is armed.

namespace kgacc {

namespace failpoint_internal {
/// Number of currently armed failpoints, kept by the registry. The fast
/// path reads it relaxed: arming strictly precedes the run that should
/// observe the faults (same thread or externally synchronized).
extern std::atomic<uint32_t> g_armed_count;
/// Slow path: policy evaluation under the registry lock.
bool EvaluateSlow(const char* name);
}  // namespace failpoint_internal

/// True when the armed policy for `name` says this evaluation fails.
/// Injected latency (`sleep:MS`) is applied here. Unarmed points — and
/// processes with no failpoints at all — return false in a branch.
inline bool FailpointHit(const char* name) {
  if (failpoint_internal::g_armed_count.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return failpoint_internal::EvaluateSlow(name);
}

/// Evaluation/fire counters for one failpoint, for tests and telemetry.
struct FailpointStats {
  uint64_t evaluations = 0;
  uint64_t failures = 0;
};

/// The process-wide failpoint table. All members are thread-safe.
class FailpointRegistry {
 public:
  static FailpointRegistry& Instance();

  /// Parses and arms a full spec string (see the file comment for the
  /// grammar). Arming is transactional: on a malformed spec nothing
  /// changes and a descriptive InvalidArgument is returned.
  Status Arm(const std::string& spec);

  /// Arms a single point with a single policy string ("once", "every:3",
  /// ...). `off` disarms it.
  Status ArmOne(const std::string& name, const std::string& policy);

  /// Disarms one point (keeps its counters until DisarmAll).
  void Disarm(const std::string& name);

  /// Disarms everything and clears all counters — what test teardown calls.
  void DisarmAll();

  /// Counters for `name`; zeros when the point was never armed.
  FailpointStats Stats(const std::string& name) const;

  /// Names of the currently armed points, sorted.
  std::vector<std::string> ArmedNames() const;

 private:
  FailpointRegistry() = default;
};

/// RAII arming for tests: arms the spec on construction, disarms everything
/// on destruction, so a failed assertion cannot leak an armed schedule into
/// the next test.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(const std::string& spec) {
    status_ = FailpointRegistry::Instance().Arm(spec);
  }
  ~ScopedFailpoints() { FailpointRegistry::Instance().DisarmAll(); }
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;

  /// Arm outcome — assert ok() before relying on the schedule.
  const Status& status() const { return status_; }

 private:
  Status status_;
};

}  // namespace kgacc

#endif  // KGACC_UTIL_FAILPOINT_H_
