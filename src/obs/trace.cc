#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "support/json.h"

namespace jfeed::obs {

namespace {

/// The thread's innermost live span — the implicit parent of the next Span
/// constructed without an explicit one. Maintained by Span::Begin/End.
thread_local const Span* g_current_span = nullptr;

}  // namespace

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  unix_epoch_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
}

Tracer& Tracer::Global() {
  // Leaked on purpose: thread_local ring handles are registered here and
  // must never outlive the registry they fold into.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable(size_t ring_capacity) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_capacity_ = ring_capacity == 0 ? 1 : ring_capacity;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->records.clear();
    ring->next = 0;
    ring->dropped = 0;
  }
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Ring& Tracer::ThreadRing() {
  thread_local std::shared_ptr<Ring> local;
  if (local == nullptr) {
    local = std::make_shared<Ring>();
    local->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    local->capacity = ring_capacity_;
    rings_.push_back(local);
  }
  return *local;
}

void Tracer::RecordSpan(SpanRecord record) {
  Ring& ring = ThreadRing();
  record.tid = ring.tid;
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.records.size() < ring.capacity) {
    ring.records.push_back(std::move(record));
    return;
  }
  // Full: overwrite the oldest slot (the ring wrapped `next` times already).
  ring.records[ring.next] = std::move(record);
  ring.next = (ring.next + 1) % ring.capacity;
  ++ring.dropped;
}

int64_t Tracer::DroppedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    total += ring->dropped;
  }
  return total;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      // Chronological per ring: the slots from `next` onward are the older
      // half once the ring has wrapped.
      for (size_t i = ring->next; i < ring->records.size(); ++i) {
        out.push_back(ring->records[i]);
      }
      for (size_t i = 0; i < ring->next; ++i) {
        out.push_back(ring->records[i]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

std::string Tracer::ExportChromeJson(int pid,
                                     const std::string& process_name) const {
  std::vector<SpanRecord> records = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  bool first = true;
  if (!process_name.empty()) {
    out += "\n{\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":";
    AppendJsonString(process_name, &out);
    out += "}}";
    first = false;
  }
  for (const SpanRecord& r : records) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"ph\":\"X\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(r.tid);
    out += ",\"name\":";
    AppendJsonString(r.name, &out);
    // ts/dur in microseconds (the unit the trace_event format mandates),
    // unix-aligned so exports from separate processes share one timeline.
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(unix_epoch_us_) +
                      static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    out += buf;
    out += ",\"args\":{\"id\":";
    out += std::to_string(r.id);
    out += ",\"parent\":";
    out += std::to_string(r.parent_id);
    if ((r.trace_hi | r.trace_lo) != 0) {
      out += ",\"trace_id\":\"";
      out += TraceIdHex(TraceContext{r.trace_hi, r.trace_lo, 0});
      out += "\"";
    }
    if (!r.detail.empty()) {
      out += ",\"detail\":";
      AppendJsonString(r.detail, &out);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

// --- Span -------------------------------------------------------------------

void Span::Begin(const char* name, uint64_t parent_id, uint64_t trace_hi,
                 uint64_t trace_lo) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;  // id_ stays 0: not recording.
  name_ = name;
  id_ = tracer.NextSpanId();
  parent_id_ = parent_id;
  if ((trace_hi | trace_lo) != 0) {
    trace_hi_ = trace_hi;
    trace_lo_ = trace_lo;
  } else {
    // Root of a new local trace: mint, so every span belongs to some trace
    // and a later hop always has a context to propagate.
    TraceContext minted = MintTraceContext();
    trace_hi_ = minted.trace_hi;
    trace_lo_ = minted.trace_lo;
  }
  start_ns_ = tracer.NowNs();
  ended_ = false;
  tracer.open_spans_.fetch_add(1, std::memory_order_relaxed);
  prev_current_ = g_current_span;
  g_current_span = this;
}

Span::Span(const char* name) {
  const Span* parent = g_current_span;
  Begin(name, parent != nullptr ? parent->id_ : 0,
        parent != nullptr ? parent->trace_hi_ : 0,
        parent != nullptr ? parent->trace_lo_ : 0);
}

Span::Span(const char* name, const Span& parent) {
  Begin(name, parent.id_, parent.trace_hi_, parent.trace_lo_);
}

Span::Span(const char* name, const TraceContext& remote) {
  if (remote.valid()) {
    Begin(name, remote.span_id, remote.trace_hi, remote.trace_lo);
  } else {
    const Span* parent = g_current_span;
    Begin(name, parent != nullptr ? parent->id_ : 0,
          parent != nullptr ? parent->trace_hi_ : 0,
          parent != nullptr ? parent->trace_lo_ : 0);
  }
}

void Span::Annotate(const std::string& detail) {
  if (id_ == 0) return;
  if (!detail_.empty()) detail_ += ' ';
  detail_ += detail;
}

void Span::End() {
  if (ended_) return;
  ended_ = true;
  Tracer& tracer = Tracer::Global();
  SpanRecord record;
  record.name = name_;
  record.id = id_;
  record.parent_id = parent_id_;
  record.trace_hi = trace_hi_;
  record.trace_lo = trace_lo_;
  record.start_ns = start_ns_;
  record.end_ns = tracer.NowNs();
  record.detail = std::move(detail_);
  // Restore the implicit-parent chain even if an inner span was ended out
  // of order (defensive; RAII nesting makes this the common case anyway).
  if (g_current_span == this) g_current_span = prev_current_;
  tracer.open_spans_.fetch_add(-1, std::memory_order_relaxed);
  tracer.RecordSpan(record);
}

}  // namespace jfeed::obs
