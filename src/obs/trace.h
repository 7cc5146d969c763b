#ifndef JFEED_OBS_TRACE_H_
#define JFEED_OBS_TRACE_H_

// Structured tracing for the grading pipeline.
//
// A Span is an RAII scope: construction stamps a monotonic-clock start,
// destruction (or End()) stamps the end and appends one fixed-size record
// to the calling thread's ring buffer. Parents are explicit — pass the
// parent Span to nest under it — or implicit: a Span constructed without a
// parent nests under the thread's innermost live span, which is how a
// `lex` span inside java::Parse lands under the pipeline's `parse` stage
// span without the parser knowing about the pipeline.
//
// Every span belongs to a 128-bit distributed trace (trace_context.h).
// Children inherit the trace of their parent; a root span either mints a
// fresh trace or — via the remote-parent constructor taking a
// TraceContext — adopts one parsed from an incoming `traceparent` header,
// which is how a broker-side routing attempt and the worker-side pipeline
// spans end up on one timeline. Span::context() hands the {trace id, span
// id} pair onward for the next hop.
//
// The tracer is runtime-gated: until Tracer::Enable() runs, constructing a
// Span is one relaxed atomic load and nothing is recorded. Recording is
// per-thread (one uncontended mutex per ring), so tracing a parallel batch
// never serializes workers. ExportChromeJson(pid) renders every recorded
// span as Chrome trace_event complete events ("ph":"X") — the format
// Perfetto and chrome://tracing open directly; timestamps are unix-aligned
// microseconds so exports from different processes (broker + workers)
// splice onto one timeline, `pid` keys the process lane, and cross-thread
// parentage plus the trace id ride in args.
//
// Span names must be string literals (or otherwise outlive the tracer):
// records store the pointer, not a copy. Annotate() attaches a small
// free-form detail string (worker id, retry cause, ...) copied into the
// record.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace_context.h"

namespace jfeed::obs {

/// One completed span, as stored in a thread ring and returned by
/// Tracer::Snapshot(). Timestamps are nanoseconds since the tracer epoch.
struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent_id = 0;   ///< 0 = root span.
  uint64_t trace_hi = 0;    ///< 128-bit trace id this span belongs to.
  uint64_t trace_lo = 0;
  uint32_t tid = 0;         ///< Tracer-assigned thread index, dense from 1.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string detail;       ///< Annotate() payload; empty for most spans.
};

class Span;

/// Process-wide trace recorder: a registry of per-thread span rings plus
/// the master enable switch and the export/snapshot surface.
class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = size_t{1} << 15;

  static Tracer& Global();

  /// Starts recording. `ring_capacity` bounds the number of retained spans
  /// per thread; when a ring is full the oldest span is overwritten (and
  /// DroppedCount() grows). Applies to rings created after this call;
  /// already-registered rings keep their capacity. Idempotent.
  void Enable(size_t ring_capacity = kDefaultRingCapacity);

  /// Stops recording new spans. Spans already begun still record their end
  /// (their ring slot exists); recorded spans remain exportable.
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every recorded span and resets the dropped counter. Live spans
  /// are unaffected (they record on End as usual).
  void Clear();

  /// Every completed span across all threads, sorted by start time.
  std::vector<SpanRecord> Snapshot() const;

  /// Chrome trace_event JSON (object form, "traceEvents" array of "ph":"X"
  /// complete events; ts/dur in unix-aligned microseconds, comparable
  /// across processes). `pid` labels every event so multi-process exports
  /// federate without lane collisions; a non-empty `process_name` prepends
  /// a process_name metadata event Perfetto shows as the lane title. Open
  /// in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
  std::string ExportChromeJson(int pid = 1,
                               const std::string& process_name = "") const;

  /// Number of spans begun but not yet ended — 0 after any well-nested
  /// unit of work, which is what the chaos suite asserts after a fault
  /// campaign (no fault path may leak an open span).
  int64_t OpenSpanCount() const {
    return open_spans_.load(std::memory_order_relaxed);
  }

  /// Spans overwritten by ring wrap-around since the last Clear().
  int64_t DroppedCount() const;

 private:
  friend class Span;

  struct Ring {
    std::mutex mu;
    std::vector<SpanRecord> records;  ///< Ring storage, capacity-bounded.
    size_t capacity = kDefaultRingCapacity;
    size_t next = 0;        ///< Overwrite position once full.
    int64_t dropped = 0;    ///< Records overwritten by wrap-around.
    uint32_t tid = 0;
  };

  Tracer();

  /// The calling thread's ring, registered on first use. The registry holds
  /// a shared_ptr, so records survive thread exit until Clear().
  Ring& ThreadRing();

  int64_t NowNs() const;
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordSpan(SpanRecord record);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<int64_t> open_spans_{0};
  std::atomic<uint32_t> next_tid_{1};
  std::chrono::steady_clock::time_point epoch_;
  int64_t unix_epoch_us_ = 0;  ///< Unix time of epoch_, for export ts.
  size_t ring_capacity_ = kDefaultRingCapacity;
  mutable std::mutex mu_;  ///< Guards rings_ and ring_capacity_.
  std::vector<std::shared_ptr<Ring>> rings_;
};

/// RAII trace span. See the file comment for parenting rules.
class Span {
 public:
  /// Begins a span nested under the thread's innermost live span (root if
  /// none; a root mints a fresh trace id). Records nothing when the tracer
  /// is disabled.
  explicit Span(const char* name);
  /// Begins a span with an explicit parent handle, on the parent's trace.
  /// A non-recording parent (tracer was off when it began) yields a root.
  Span(const char* name, const Span& parent);
  /// Remote-parent constructor: begins a span on the trace named by a
  /// context parsed from an incoming traceparent header, parented under
  /// remote.span_id. An invalid context degrades to the implicit-parent
  /// rule above, so callers can pass a default TraceContext untested.
  Span(const char* name, const TraceContext& remote);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early; idempotent (the destructor then does nothing).
  void End();

  /// Attaches a detail string to the record (appended, space-separated,
  /// when called more than once). No-op on a non-recording span.
  void Annotate(const std::string& detail);

  /// 0 when the span is not recording (tracer disabled at construction).
  uint64_t id() const { return id_; }
  bool recording() const { return id_ != 0; }

  /// This span's {trace id, span id} — the context to propagate to the
  /// next hop. Invalid (all-zero) when not recording.
  TraceContext context() const {
    return TraceContext{trace_hi_, trace_lo_, id_};
  }

 private:
  void Begin(const char* name, uint64_t parent_id, uint64_t trace_hi,
             uint64_t trace_lo);

  const char* name_ = "";
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t trace_hi_ = 0;
  uint64_t trace_lo_ = 0;
  int64_t start_ns_ = 0;
  std::string detail_;
  const Span* prev_current_ = nullptr;
  bool ended_ = true;
};

}  // namespace jfeed::obs

#endif  // JFEED_OBS_TRACE_H_
