#ifndef JFEED_OBS_EVENT_LOG_H_
#define JFEED_OBS_EVENT_LOG_H_

// Per-submission flight recorder.
//
// Where metrics aggregate ("N submissions timed out today") and traces
// decompose time ("the match stage took 40% of this run"), the flight
// recorder answers the third operational question: *exactly why did
// submission X get feedback Y*. Every graded submission emits one wide
// event — a single flat record carrying the verdict, the degradation-
// ladder rung, cache disposition, matcher work counters, interpreter
// resource spend and per-stage wall times — into a bounded in-memory ring.
// The daemon serves the ring at /events; `grade --events-out=` streams the
// same records to a file as NDJSON, one JSON object per line.
//
// The ring is bounded: when full, the oldest event is overwritten and the
// `jfeed_events_dropped_total` counter (part of the DESIGN.md §6 metric
// contract) increments, so a dashboard can tell "quiet service" from
// "recorder wrapping faster than anyone scrapes it".
//
// Schema stability: WideEvent's field names as rendered by ToJson() are
// part of the monitoring interface (DESIGN.md §6b). Adding a field is
// backward compatible; renaming or removing one is a breaking change that
// must be called out in CHANGES.md. FromJson() accepts unknown fields for
// the same forward-compatibility reason.
//
// Like the rest of src/obs, the recorder is runtime-gated: nothing records
// until set_enabled(true).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace jfeed::obs {

/// One graded submission, flattened. Strings hold the stable lowercase
/// names the pipeline already exposes (VerdictName, FeedbackTierName,
/// FailureClassName); numeric fields are exact, not sampled.
struct WideEvent {
  uint64_t seq = 0;          ///< Recorder-assigned, dense from 1.
  int64_t unix_ms = 0;       ///< Wall-clock completion time (ms since epoch).
  std::string submission_id; ///< Caller-chosen id; may be empty.
  /// Distributed-trace join keys (trace_context.h): the 32-hex trace id
  /// minted at the outermost entry point (broker, daemon, or CLI) and the
  /// 16-hex id of the span that graded this submission. Empty when tracing
  /// was off — the one id that links this record to broker attempt spans
  /// and the federated /tracez timeline.
  std::string trace_id;
  std::string span_id;
  std::string assignment;    ///< Knowledge-base assignment id.
  std::string verdict;       ///< correct|incorrect|spec_mismatch|not_graded.
  std::string tier;          ///< full_epdg|ast_only|parse_diagnostic.
  std::string failure_class; ///< none|parse_error|timeout|...
  /// Cache disposition: "hit" (served from the result cache), "dedup"
  /// (coalesced onto an in-flight duplicate), "miss" (looked up, graded),
  /// "off" (no lookup attempted), "partial_hit" (graded, but at least one
  /// method was reused from the method cache — see methods_reused below).
  std::string cache;
  bool degraded = false;
  std::string diagnostic;    ///< Status text that forced a rung drop.
  double score = 0.0;
  int64_t match_steps = 0;
  int64_t match_regex_checks = 0;
  /// Bytes bump-allocated from the per-submission arenas (EPDG memory +
  /// matcher scratch) while grading — the hot path's memory footprint.
  int64_t arena_bytes_peak = 0;
  /// Incremental-grading accounting (cache disposition "partial_hit"):
  /// methods served from the method cache vs. methods (re)graded. Both
  /// zero when no method cache was configured.
  int64_t methods_reused = 0;
  int64_t methods_regraded = 0;
  int64_t interp_steps = 0;
  int64_t interp_heap_bytes = 0;
  int64_t interp_output_bytes = 0;
  int64_t functional_tests_run = 0;
  int64_t functional_tests_failed = 0;
  double parse_ms = 0.0;
  double epdg_ms = 0.0;
  double match_ms = 0.0;
  double functional_ms = 0.0;
  /// Tests killed by a time budget (step budget or per-test deadline).
  int64_t functional_timeouts = 0;
  /// Steps spent by failed test executions; interp_steps counts only the
  /// successful ones. A step-budget kill counts exactly max_steps.
  int64_t interp_steps_failed = 0;
};

/// Renders one event as a single-line JSON object (no trailing newline) —
/// the NDJSON record format of /events and --events-out.
std::string ToJson(const WideEvent& event);

/// Parses one ToJson() line back into `*event`. Unknown fields are
/// ignored; a missing field keeps its default. Returns false on input that
/// is not a flat JSON object (the round-trip tests and offline tooling use
/// this; the serving path never parses).
bool FromJson(const std::string& json, WideEvent* event);

/// Bounded ring of the most recent wide events. Append is O(1) under one
/// mutex — it runs once per graded submission (milliseconds of work), so
/// unlike the metrics hot path it does not need sharding.
class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  static EventLog& Global();

  /// Master switch, mirroring Registry::set_enabled: while disabled (the
  /// default) Append is a relaxed load and an early return.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Resizes the ring; the newest min(size, capacity) events survive.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// Records one event (stamps seq; the caller fills everything else).
  /// No-op while disabled. Overwrites the oldest event when full and
  /// increments jfeed_events_dropped_total.
  void Append(WideEvent event);

  /// Oldest-to-newest copy of the ring.
  std::vector<WideEvent> Snapshot() const;

  /// The ring as NDJSON, oldest first; `limit` keeps only the newest N
  /// events (0 = all). The /events endpoint body.
  std::string RenderNdjson(size_t limit = 0) const;

  /// Events overwritten by ring wrap-around since the last Clear() — the
  /// same number jfeed_events_dropped_total carries.
  int64_t DroppedCount() const;

  size_t size() const;

  /// Drops every recorded event and resets seq + dropped. Test isolation.
  void Clear();

 private:
  EventLog() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<WideEvent> ring_;  ///< Ring storage, capacity-bounded.
  size_t capacity_ = kDefaultCapacity;
  size_t next_ = 0;              ///< Overwrite position once full.
  uint64_t next_seq_ = 1;
  int64_t dropped_ = 0;
};

}  // namespace jfeed::obs

#endif  // JFEED_OBS_EVENT_LOG_H_
