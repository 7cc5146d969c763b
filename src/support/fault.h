#ifndef JFEED_SUPPORT_FAULT_H_
#define JFEED_SUPPORT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/status.h"

namespace jfeed::fault {

/// Canonical injection-point names. Each name marks one place in the
/// pipeline where `JFEED_FAULT_POINT` is invoked; the chaos tests sweep
/// `Injector::AllPoints()` and force a failure at each one in turn.
namespace points {
inline constexpr const char kLexer[] = "javalang.lex";
inline constexpr const char kParser[] = "javalang.parse";
inline constexpr const char kEpdgBuilder[] = "pdg.build_epdg";
inline constexpr const char kInterpreterCall[] = "interp.call";
inline constexpr const char kMatcher[] = "core.match_submission";

// Fleet points, crossed in the broker (src/fleet), not the grading
// pipeline — listed by Injector::FleetPoints(), NOT AllPoints(), because
// the pipeline chaos sweep asserts a degradation-ladder rung per point and
// these fire nowhere inside a single-process grade. Configure the
// campaign's `code` to shape the symptom (kUnavailable reads as a worker
// crash / connection reset, kTimeout as a deadline blowout).
/// A grade attempt dispatched to a worker dies mid-flight (worker crash).
inline constexpr const char kFleetWorkerGrade[] = "fleet.worker_grade";
/// A health probe is blackholed (worker alive but unreachable).
inline constexpr const char kFleetProbe[] = "fleet.probe";
/// A worker answered, but too slowly to count (forced deadline expiry).
inline constexpr const char kFleetSlowResponse[] = "fleet.slow_response";

// Crossed in service::MethodCache::Lookup. In NEITHER AllPoints() nor
// FleetPoints(): a failing lookup degrades to a healthy full regrade —
// same feedback, no ladder-rung drop — so the pipeline chaos sweep's
// "one rung per point" assertion doesn't apply; a dedicated chaos test
// asserts the degrade-to-regrade contract instead.
inline constexpr const char kMethodCacheLookup[] = "cache.method_lookup";
}  // namespace points

/// Configuration of one injection campaign. The decision whether a given
/// hit of a given point fails is a pure function of (seed, point name, hit
/// ordinal), so a campaign is exactly reproducible from its config — the
/// property RocksDB's SyncPoint-style tests rely on.
///
/// Ordinal semantics under concurrency: hit ordinals are GLOBAL, not
/// per-thread — MaybeFail serializes on the injector mutex and assigns each
/// crossing of a point the next ordinal in process-wide arrival order.
/// Consequences for the parallel scheduler:
///
///  - Campaigns whose decision ignores the ordinal — `probability == 1.0`
///    (with or without `only_point`) or `probability == 0.0` — are
///    schedule-independent: every submission lands on the same documented
///    degradation-ladder rung at any worker count, which is what the
///    multi-threaded chaos tests assert.
///  - Campaigns with `0 < probability < 1` stay reproducible only for a
///    fixed thread interleaving: worker scheduling decides which crossing
///    receives which ordinal, so per-submission outcomes may differ between
///    runs (the *set* of decisions drawn from (seed, point, ordinal) is
///    still deterministic). Single-threaded grading keeps the original
///    exact reproducibility.
///
/// The scheduler additionally bypasses its result cache and
/// duplicate-submission dedup while an injection campaign is enabled, so
/// every submission actually crosses the points a campaign targets.
struct FaultConfig {
  uint64_t seed = 1;
  /// Probability in [0, 1] that a hit fails. 1.0 = fail every hit.
  double probability = 1.0;
  /// When non-empty, only this point ever fails; all others pass through.
  std::string only_point;
  /// Status code carried by injected failures.
  StatusCode code = StatusCode::kInternal;
};

/// Process-wide deterministic fault injector, in the style of RocksDB's
/// SyncPoint: a registry of named points compiled into the production code
/// paths. Disabled (the default) it costs one relaxed atomic load per
/// crossing (see the JFEED_FAULT_POINT macro below).
class Injector {
 public:
  static Injector& Get();

  /// Starts an injection campaign; resets all hit counters.
  void Enable(const FaultConfig& config);
  /// Stops injecting. Hit counters remain readable until the next Enable.
  void Disable();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Called (via JFEED_FAULT_POINT) each time execution crosses `point`.
  /// Returns OK, or the configured failure status when the deterministic
  /// decision function fires for this hit.
  Status MaybeFail(const char* point);

  /// Number of times `point` was crossed since the last Enable.
  int64_t Hits(const std::string& point) const;

  /// The canonical list of registered grading-pipeline injection points
  /// (the set the per-assignment chaos sweep iterates).
  static std::vector<std::string> AllPoints();

  /// The broker-side fleet injection points (worker crash, probe
  /// blackhole, slow response), swept by the fleet chaos suite.
  static std::vector<std::string> FleetPoints();

 private:
  Injector() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  FaultConfig config_;
  std::map<std::string, int64_t> hits_;
};

/// RAII enable/disable for tests: enables the injector for the lifetime of
/// the scope and restores the disabled state on exit.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultConfig& config) {
    Injector::Get().Enable(config);
  }
  ~ScopedFaultInjection() { Injector::Get().Disable(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace jfeed::fault

/// Marks a fault-injection point inside a function returning Status or
/// Result<T>.
#define JFEED_FAULT_POINT(point)                                  \
  do {                                                            \
    if (::jfeed::fault::Injector::Get().enabled()) {              \
      ::jfeed::Status _jfeed_fault_status =                       \
          ::jfeed::fault::Injector::Get().MaybeFail(point);       \
      if (!_jfeed_fault_status.ok()) return _jfeed_fault_status;  \
    }                                                             \
  } while (0)

#endif  // JFEED_SUPPORT_FAULT_H_
