#ifndef JBENCH_SPANS_H_
#define JBENCH_SPANS_H_

// In-memory spans the benchmark records around its own calls into the
// program's public functions (Submit/Wait, fleet::Fetch, and the layer
// replay). Nothing inside the program is instrumented: a span's duration is
// the call's wall time seen from the caller. Spans of one submission share
// `sub`; `parent` links a call to the span that caused it. The recorder is a
// no-op unless enabled, so untraced runs pay nothing for it.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace jbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";  ///< Public function called, e.g. "java::Parse".
  const char* layer = ""; ///< Module the call belongs to.
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root.
  uint64_t sub = 0;     ///< Submission the span belongs to.
  Clock::time_point start;
  Clock::time_point end;
  uint32_t tid = 0;     ///< Small per-thread number for the trace viewer.
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserves a span id, so a parent can be named before it is recorded.
  uint64_t NewId() {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }

  /// Records one finished call.
  void Add(uint64_t id, const char* name, const char* layer, uint64_t parent,
           uint64_t sub, Clock::time_point start, Clock::time_point end,
           uint32_t tid) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(SpanRecord{name, layer, id, parent, sub, start, end, tid});
  }

  /// Span count (read after the recording threads joined).
  size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
  std::string ChromeJson(Clock::time_point epoch) const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const auto& s : spans_) {
      if (!first) out += ",";
      first = false;
      double ts = std::chrono::duration<double, std::micro>(s.start - epoch)
                      .count();
      double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      out += "{\"name\":\"" + std::string(s.name) + "\",\"cat\":\"" +
             s.layer + "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
             std::to_string(s.tid) + ",\"ts\":" + std::to_string(ts) +
             ",\"dur\":" + std::to_string(dur) + ",\"args\":{\"id\":" +
             std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent) +
             ",\"sub\":" + std::to_string(s.sub) + "}}";
    }
    out += "]}\n";
    return out;
  }

 private:
  const bool enabled_;
  std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
};

}  // namespace jbench

#endif  // JBENCH_SPANS_H_
