#include "obs/event_log.h"

#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "support/json.h"

namespace jfeed::obs {

namespace {

/// Renders a double with enough precision to round-trip millisecond
/// timings ("%.6g" keeps 1234.56 exact and avoids 17-digit noise).
void AppendDouble(double value, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  *out += buf;
}

}  // namespace

std::string ToJson(const WideEvent& e) {
  std::string out = "{";
  auto str = [&out](const char* name, const std::string& value,
                    bool first = false) {
    if (!first) out += ",";
    out += std::string("\"") + name + "\":";
    AppendJsonString(value, &out);
  };
  auto num = [&out](const char* name, int64_t value) {
    out += std::string(",\"") + name + "\":" + std::to_string(value);
  };
  auto dbl = [&out](const char* name, double value) {
    out += std::string(",\"") + name + "\":";
    AppendDouble(value, &out);
  };
  num("seq", static_cast<int64_t>(e.seq));
  // seq opened with a comma; strip it so the object starts cleanly.
  out.erase(1, 1);
  num("unix_ms", e.unix_ms);
  str("id", e.submission_id);
  str("trace_id", e.trace_id);
  str("span_id", e.span_id);
  str("assignment", e.assignment);
  str("verdict", e.verdict);
  str("tier", e.tier);
  str("failure_class", e.failure_class);
  str("cache", e.cache);
  out += ",\"degraded\":";
  out += e.degraded ? "true" : "false";
  str("diagnostic", e.diagnostic);
  dbl("score", e.score);
  num("match_steps", e.match_steps);
  num("match_regex_checks", e.match_regex_checks);
  num("arena_bytes_peak", e.arena_bytes_peak);
  num("methods_reused", e.methods_reused);
  num("methods_regraded", e.methods_regraded);
  num("interp_steps", e.interp_steps);
  num("interp_heap_bytes", e.interp_heap_bytes);
  num("interp_output_bytes", e.interp_output_bytes);
  num("functional_tests_run", e.functional_tests_run);
  num("functional_tests_failed", e.functional_tests_failed);
  dbl("parse_ms", e.parse_ms);
  dbl("epdg_ms", e.epdg_ms);
  dbl("match_ms", e.match_ms);
  dbl("functional_ms", e.functional_ms);
  num("functional_timeouts", e.functional_timeouts);
  num("interp_steps_failed", e.interp_steps_failed);
  out += "}";
  return out;
}

namespace {

bool ParseNumber(const std::string& s, size_t* pos, double* out) {
  const char* start = s.c_str() + *pos;
  char* end = nullptr;
  double v = std::strtod(start, &end);
  if (end == start) return false;
  *pos += static_cast<size_t>(end - start);
  *out = v;
  return true;
}

}  // namespace

// WideEvent NDJSON is a flat object of string / number / bool values, so
// FromJson scans exactly that grammar, skipping unknown values of those
// shapes for forward compatibility.
bool FromJson(const std::string& json, WideEvent* event) {
  size_t pos = 0;
  SkipJsonSpace(json, &pos);
  if (pos >= json.size() || json[pos] != '{') return false;
  ++pos;
  *event = WideEvent();
  while (true) {
    SkipJsonSpace(json, &pos);
    if (pos < json.size() && json[pos] == '}') return true;
    auto parsed_key = ParseJsonString(json, &pos);
    if (!parsed_key.ok()) return false;
    const std::string& key = *parsed_key;
    SkipJsonSpace(json, &pos);
    if (pos >= json.size() || json[pos] != ':') return false;
    ++pos;
    SkipJsonSpace(json, &pos);
    if (pos >= json.size()) return false;

    if (json[pos] == '"') {
      auto value = ParseJsonString(json, &pos);
      if (!value.ok()) return false;
      if (key == "id") event->submission_id = *value;
      else if (key == "trace_id") event->trace_id = *value;
      else if (key == "span_id") event->span_id = *value;
      else if (key == "assignment") event->assignment = *value;
      else if (key == "verdict") event->verdict = *value;
      else if (key == "tier") event->tier = *value;
      else if (key == "failure_class") event->failure_class = *value;
      else if (key == "cache") event->cache = *value;
      else if (key == "diagnostic") event->diagnostic = *value;
    } else if (json.compare(pos, 4, "true") == 0) {
      pos += 4;
      if (key == "degraded") event->degraded = true;
    } else if (json.compare(pos, 5, "false") == 0) {
      pos += 5;
      if (key == "degraded") event->degraded = false;
    } else {
      double value = 0;
      if (!ParseNumber(json, &pos, &value)) return false;
      if (key == "seq") event->seq = static_cast<uint64_t>(value);
      else if (key == "unix_ms") event->unix_ms = static_cast<int64_t>(value);
      else if (key == "score") event->score = value;
      else if (key == "match_steps") {
        event->match_steps = static_cast<int64_t>(value);
      } else if (key == "match_regex_checks") {
        event->match_regex_checks = static_cast<int64_t>(value);
      } else if (key == "arena_bytes_peak") {
        event->arena_bytes_peak = static_cast<int64_t>(value);
      } else if (key == "methods_reused") {
        event->methods_reused = static_cast<int64_t>(value);
      } else if (key == "methods_regraded") {
        event->methods_regraded = static_cast<int64_t>(value);
      } else if (key == "interp_steps") {
        event->interp_steps = static_cast<int64_t>(value);
      } else if (key == "interp_heap_bytes") {
        event->interp_heap_bytes = static_cast<int64_t>(value);
      } else if (key == "interp_output_bytes") {
        event->interp_output_bytes = static_cast<int64_t>(value);
      } else if (key == "functional_tests_run") {
        event->functional_tests_run = static_cast<int64_t>(value);
      } else if (key == "functional_tests_failed") {
        event->functional_tests_failed = static_cast<int64_t>(value);
      } else if (key == "parse_ms") {
        event->parse_ms = value;
      } else if (key == "epdg_ms") {
        event->epdg_ms = value;
      } else if (key == "match_ms") {
        event->match_ms = value;
      } else if (key == "functional_ms") {
        event->functional_ms = value;
      } else if (key == "functional_timeouts") {
        event->functional_timeouts = static_cast<int64_t>(value);
      } else if (key == "interp_steps_failed") {
        event->interp_steps_failed = static_cast<int64_t>(value);
      }
    }
    SkipJsonSpace(json, &pos);
    if (pos < json.size() && json[pos] == ',') {
      ++pos;
      continue;
    }
    if (pos < json.size() && json[pos] == '}') return true;
    return false;
  }
}

namespace {

/// Contract metric (DESIGN.md §6): events lost to ring wrap-around.
Counter* DroppedTotal() {
  static Counter* counter = Registry::Global().GetCounter(
      "jfeed_events_dropped_total",
      "Flight-recorder wide events overwritten by ring wrap-around");
  return counter;
}

}  // namespace

EventLog& EventLog::Global() {
  // Leaked like the Registry: Append can run from worker threads whose
  // thread_local destructors must never outlive the log.
  static EventLog* log = [] {
    // Register the contract drop counter eagerly so /metrics exposes it at
    // zero from the first scrape — a dashboard alerting on its rate must
    // not confuse "no drops yet" with "metric missing".
    DroppedTotal();
    return new EventLog();
  }();
  return *log;
}

void EventLog::SetCapacity(size_t capacity) {
  if (capacity == 0) capacity = 1;
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity == capacity_) return;
  // Re-linearize oldest-first into the new ring, keeping the newest events.
  std::vector<WideEvent> ordered;
  ordered.reserve(ring_.size());
  if (ring_.size() == capacity_) {
    for (size_t i = 0; i < ring_.size(); ++i) {
      ordered.push_back(ring_[(next_ + i) % ring_.size()]);
    }
  } else {
    ordered = ring_;
  }
  if (ordered.size() > capacity) {
    ordered.erase(ordered.begin(),
                  ordered.end() - static_cast<ptrdiff_t>(capacity));
  }
  ring_ = std::move(ordered);
  capacity_ = capacity;
  next_ = ring_.size() == capacity ? 0 : ring_.size();
}

size_t EventLog::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void EventLog::Append(WideEvent event) {
  if (!enabled()) return;
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    event.seq = next_seq_++;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(event));
    } else {
      ring_[next_] = std::move(event);
      next_ = (next_ + 1) % capacity_;
      ++dropped_;
      dropped = true;
    }
  }
  // Outside the lock: the counter has its own synchronization.
  if (dropped) DroppedTotal()->Increment();
}

std::vector<WideEvent> EventLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WideEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() == capacity_) {
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
  } else {
    out = ring_;
  }
  return out;
}

std::string EventLog::RenderNdjson(size_t limit) const {
  std::vector<WideEvent> events = Snapshot();
  size_t start = 0;
  if (limit > 0 && events.size() > limit) start = events.size() - limit;
  std::string out;
  for (size_t i = start; i < events.size(); ++i) {
    out += ToJson(events[i]);
    out += "\n";
  }
  return out;
}

int64_t EventLog::DroppedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  next_seq_ = 1;
  dropped_ = 0;
}

}  // namespace jfeed::obs
