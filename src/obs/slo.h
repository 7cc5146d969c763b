#ifndef JFEED_OBS_SLO_H_
#define JFEED_OBS_SLO_H_

// Per-assignment SLO / error-budget accounting for the grading fleet.
//
// Each assignment (tenant) gets two objectives over a rolling budget
// window: a latency objective (a grade is "good" when its end-to-end
// duration — the same admitted→published interval jfeed_grade_duration_us
// records — is at or under `latency_threshold_us`) and an availability
// objective (a shed submission is always a bad event). The error budget is
// the fraction of bad events the availability target permits:
// `1 - target`. Burn rate is the classic SRE multi-window form
//
//   burn = (bad / total) / (1 - target)
//
// evaluated over a short (fast) and a medium (slow) window: burn 1.0 means
// the tenant spends its budget exactly as fast as the window allows, 14x
// means a fast-burn page. jfeedd surfaces the numbers on /sloz, exports
// them as jfeed_slo_* metrics (DESIGN.md §6), and degrades /healthz while
// any tenant fast-burns — the load balancer steers away *before* the
// admission quota starts shedding. The broker aggregates worker /sloz
// bodies with AggregateSloz().
//
// Events land on per-second slots in a fixed ring (window_s slots). Each
// event also refreshes the tenant's jfeed_slo_* gauges, which needs the
// window sums; a tenant memoizes the sums of every slot except the current
// second's and recomputes them only when the clock second changes, so an
// event is O(1) (one ring pass per tenant per second at most) with one lock
// acquisition, and its instrument handles are resolved when the tenant is
// first seen. Snapshot(), /sloz and FastBurnAny() still scan the whole
// ring. No per-event allocation on the grading hot path. The tracker is
// runtime-gated (Configure() arms it; default off).

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace jfeed::obs {

class Counter;
class Gauge;

/// Tunables for every assignment served by one daemon. Defaults are
/// deliberately generous (30 s latency, 99.9% availability, 50-event
/// minimum) so an unconfigured daemon never degrades health on SLO burn;
/// deployments tighten them via the jfeedd --slo-* flags.
struct SloPolicy {
  int64_t latency_threshold_us = 30'000'000;  ///< "good" iff <= this.
  int64_t availability_target_ppm = 999'000;  ///< 999000 = 99.9%.
  int64_t window_s = 3600;       ///< Error-budget (and ring) window.
  int64_t fast_window_s = 60;    ///< Fast burn-rate window.
  int64_t slow_window_s = 600;   ///< Slow burn-rate window.
  int64_t fast_burn_threshold_milli = 14'000;  ///< 14x in milli-units.
  int64_t slow_burn_threshold_milli = 6'000;   ///< 6x in milli-units.
  /// Events required inside a burn window before its alert can fire —
  /// keeps one unlucky grade on an idle tenant from paging.
  int64_t min_events = 50;
};

/// One assignment's SLO state as reported by Snapshot() and /sloz.
struct AssignmentSlo {
  std::string assignment;
  // Cumulative since Configure():
  int64_t events_total = 0;
  int64_t good_total = 0;
  int64_t bad_total = 0;   ///< Slow grades + sheds.
  int64_t shed_total = 0;  ///< Subset of bad_total.
  // Rolling budget window:
  int64_t window_events = 0;
  int64_t window_bad = 0;
  int64_t budget_consumed_ppm = 0;  ///< May exceed 1e6 when blown.
  int64_t budget_remaining_ppm = 1'000'000;  ///< Clamped at 0.
  // Burn windows:
  int64_t fast_events = 0;
  int64_t fast_bad = 0;
  int64_t slow_events = 0;
  int64_t slow_bad = 0;
  int64_t burn_rate_fast_milli = 0;
  int64_t burn_rate_slow_milli = 0;
  bool fast_burn = false;
  bool slow_burn = false;
};

class SloTracker {
 public:
  SloTracker() = default;

  /// The process-wide tracker the scheduler feeds and /sloz reads.
  static SloTracker& Global();

  /// Steady-clock seconds — the time base every Record/Snapshot expects.
  /// Taken as a parameter (rather than read internally) so tests can drive
  /// window roll-over without sleeping.
  static int64_t NowS();

  /// Arms the tracker with `policy`, dropping all prior state.
  void Configure(const SloPolicy& policy);
  /// Disarms and drops all state (test isolation / daemon shutdown).
  void Disable();
  bool enabled() const;
  SloPolicy policy() const;

  /// A grade completed for `assignment` after `latency_us` in the system.
  void RecordGrade(const std::string& assignment, int64_t latency_us,
                   int64_t now_s);
  /// An admission-quota shed for `assignment`: an availability-bad event.
  void RecordShed(const std::string& assignment, int64_t now_s);

  /// Per-assignment state, assignments in lexicographic order.
  std::vector<AssignmentSlo> Snapshot(int64_t now_s) const;

  /// True while any assignment's fast window burns over threshold — the
  /// /healthz degradation signal.
  bool FastBurnAny(int64_t now_s) const;

  /// The /sloz response body: policy plus per-assignment budget state,
  /// each assignment carrying the jfeed_grade_duration_us exemplars that
  /// link its latency buckets to concrete trace ids.
  std::string RenderSlozJson(int64_t now_s) const;

 private:
  /// One second of events; `sec` guards against ring-lap staleness.
  struct Slot {
    int64_t sec = -1;
    int64_t total = 0;
    int64_t bad = 0;
  };
  /// Events and bad events inside the budget, fast and slow windows.
  struct WindowCounts {
    int64_t window_events = 0;
    int64_t window_bad = 0;
    int64_t fast_events = 0;
    int64_t fast_bad = 0;
    int64_t slow_events = 0;
    int64_t slow_bad = 0;

    /// Adds `slot`, `age` seconds old, to each window it lies inside.
    void Add(const Slot& slot, int64_t age, const SloPolicy& policy);
    /// Copies the six counts into `slo`.
    void CopyTo(AssignmentSlo* slo) const;
  };
  struct Tenant {
    int64_t good_total = 0;
    int64_t bad_total = 0;
    int64_t shed_total = 0;
    std::vector<Slot> slots;  ///< window_s slots, indexed by sec % window_s.
    /// Counts of every slot but slots[memo_sec % window_s], as seen at
    /// memo_sec. Events at memo_sec write only that slot, so the memo holds
    /// until the clock second changes.
    int64_t memo_sec = std::numeric_limits<int64_t>::min();
    WindowCounts memo;
    // The tenant's labelled instruments (DESIGN.md §6). The gauges are
    // resolved with the tenant; each result's counter on its first event,
    // so a scrape lists only results that happened.
    Gauge* budget_remaining = nullptr;
    Gauge* burn_fast = nullptr;
    Gauge* burn_slow = nullptr;
    Gauge* fast_burn = nullptr;
    Counter* good_events = nullptr;
    Counter* bad_events = nullptr;
  };

  void RecordEvent(const std::string& assignment, int64_t latency_us,
                   bool shed, int64_t now_s);
  /// Adds up the slots inside the windows at `now_s`, skipping ring index
  /// `skip` (pass window_s to skip none).
  WindowCounts CountWindowsLocked(const Tenant& tenant, int64_t now_s,
                                  size_t skip) const;
  AssignmentSlo SummarizeLocked(const std::string& assignment,
                                const Tenant& tenant, int64_t now_s) const;

  mutable std::mutex mu_;
  bool enabled_ = false;
  SloPolicy policy_;
  std::map<std::string, Tenant> tenants_;  ///< Ordered for stable output.
};

/// Broker-side aggregation: parses the /sloz bodies scraped from each
/// worker (`{worker id, body}` pairs), sums the per-assignment event and
/// window counts across workers, and re-derives budget and burn numbers
/// from the sums under the first body's policy. Returns a /sloz-shaped
/// JSON object with an extra "workers" count. Unparseable bodies are
/// skipped (a worker mid-restart must not break the fleet view).
std::string AggregateSloz(
    const std::vector<std::pair<int, std::string>>& worker_bodies);

}  // namespace jfeed::obs

#endif  // JFEED_OBS_SLO_H_
