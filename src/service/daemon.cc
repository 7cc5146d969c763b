#include "service/daemon.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

#include "kb/assignments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/batch_io.h"

namespace jfeed::service {

const char kJfeedVersion[] = "0.6.0";

namespace {

/// Parses "limit=N" out of a query string; `fallback` when absent/garbage.
size_t ParseLimit(const std::string& query, size_t fallback) {
  size_t pos = query.find("limit=");
  if (pos != 0 && (pos == std::string::npos || query[pos - 1] != '&')) {
    return fallback;
  }
  char* end = nullptr;
  unsigned long long v = std::strtoull(query.c_str() + pos + 6, &end, 10);
  if (end == query.c_str() + pos + 6) return fallback;
  return static_cast<size_t>(v);
}

/// Extracts the value of `key=` from a query string; "" when absent. Values
/// are used verbatim (assignment ids are identifier-like, no %-escapes).
std::string ParseQueryValue(const std::string& query, const std::string& key) {
  std::string needle = key + "=";
  size_t pos = query.find(needle);
  if (pos != 0 && (pos == std::string::npos || query[pos - 1] != '&')) {
    return "";
  }
  size_t start = pos + needle.size();
  size_t end = query.find('&', start);
  if (end == std::string::npos) end = query.size();
  return query.substr(start, end - start);
}

obs::HttpResponse JsonResponse(int status, std::string body) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json; charset=utf-8";
  response.body = std::move(body);
  if (!response.body.empty() && response.body.back() != '\n') {
    response.body += "\n";
  }
  return response;
}

/// Reads one of the scheduler's contract counters back out of the registry
/// (Get* is idempotent: same name + labels → same instrument).
int64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name, "")->Value();
}

/// Per-assignment variant: the `assignment`-labeled families the
/// ShardedScheduler maintains (DESIGN.md §6).
int64_t ShardCounterValue(const char* name, const std::string& assignment) {
  return obs::Registry::Global()
      .GetCounter(name, "", {{"assignment", assignment}})
      ->Value();
}

}  // namespace

GradingDaemon::GradingDaemon(DaemonOptions options)
    : options_(std::move(options)) {}

GradingDaemon::~GradingDaemon() { Stop(); }

Status GradingDaemon::Start() {
  if (server_ != nullptr) return Status::Internal("daemon already started");
  if (!options_.assignment_id.empty() && !options_.assignments.empty()) {
    return Status::InvalidArgument(
        "set assignment_id (single-tenant) or assignments (multi-tenant), "
        "not both");
  }

  const auto& kb = kb::KnowledgeBase::Get();
  std::vector<std::string> requested;
  if (!options_.assignment_id.empty()) {
    requested.push_back(options_.assignment_id);
  } else if (!options_.assignments.empty()) {
    requested = options_.assignments;
  } else {
    // The MOOC deployment shape: one process serves every assignment.
    requested = kb.assignment_ids();
  }

  std::vector<const kb::Assignment*> assignments;
  assignments.reserve(requested.size());
  for (const auto& id : requested) {
    bool known = false;
    for (const auto& kb_id : kb.assignment_ids()) known |= kb_id == id;
    if (!known) {
      return Status::NotFound("unknown assignment '" + id +
                              "' (try grade --list)");
    }
    for (const kb::Assignment* seen : assignments) {
      if (seen->id == id) {
        return Status::InvalidArgument("assignment '" + id +
                                       "' listed twice");
      }
    }
    assignments.push_back(&kb.assignment(id));
  }
  assignment_ids_ = std::move(requested);
  // Lines without an "assignment" key only have an unambiguous route when
  // the daemon serves exactly one assignment.
  default_assignment_ =
      assignment_ids_.size() == 1 ? assignment_ids_.front() : "";

  // The daemon is a monitoring surface by definition: all three
  // observability sinks come up with it.
  obs::Registry::Global().set_enabled(true);
  if (options_.trace_ring_capacity > 0) {
    obs::Tracer::Global().Enable(options_.trace_ring_capacity);
  }
  obs::EventLog::Global().SetCapacity(options_.event_capacity);
  obs::EventLog::Global().set_enabled(true);
  // Arms per-assignment error-budget accounting; the scheduler feeds it
  // from the same admitted→published interval jfeed_grade_duration_us
  // records. Configure drops prior state, so a restarted daemon (or the
  // next test in a process) starts with full budgets.
  obs::SloTracker::Global().Configure(options_.slo);

  sched::ShardedSchedulerOptions scheduler_options;
  scheduler_options.jobs = options_.jobs;
  // The admission quota: an explicit shard_queue_capacity wins; otherwise a
  // single-tenant daemon admits 256 and a multi-tenant one gets a
  // per-assignment default small enough that one spiking assignment cannot
  // monopolize the worker pool.
  scheduler_options.shard_queue_capacity =
      options_.shard_queue_capacity > 0 ? options_.shard_queue_capacity
      : assignment_ids_.size() == 1     ? 256
                                        : 64;
  scheduler_options.use_result_cache = options_.use_result_cache;
  scheduler_options.use_method_cache = options_.use_method_cache;
  scheduler_ = std::make_unique<sched::ShardedScheduler>(
      std::move(assignments), options_.pipeline, scheduler_options);

  obs::HttpServer::Options server_options;
  server_options.port = options_.port;
  server_options.workers = options_.http_workers;
  server_ = std::make_unique<obs::HttpServer>(server_options);
  server_->Handle("/grade",
                  [this](const obs::HttpRequest& r) { return HandleGrade(r); });
  server_->Handle("/metrics", [this](const obs::HttpRequest& r) {
    return HandleMetrics(r);
  });
  server_->Handle("/healthz", [this](const obs::HttpRequest& r) {
    return HandleHealthz(r);
  });
  server_->Handle("/statusz", [this](const obs::HttpRequest& r) {
    return HandleStatusz(r);
  });
  server_->Handle("/tracez", [this](const obs::HttpRequest& r) {
    return HandleTracez(r);
  });
  server_->Handle("/events", [this](const obs::HttpRequest& r) {
    return HandleEvents(r);
  });
  server_->Handle("/sloz", [this](const obs::HttpRequest& r) {
    return HandleSloz(r);
  });

  Status status = server_->Start();
  if (!status.ok()) {
    server_.reset();
    scheduler_.reset();
    return status;
  }
  started_ = std::chrono::steady_clock::now();
  start_unix_ms_ = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  draining_.store(false, std::memory_order_relaxed);
  return Status::OK();
}

void GradingDaemon::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
}

void GradingDaemon::Stop() {
  BeginDrain();
  if (server_ != nullptr) {
    server_->Stop();  // Finishes in-flight requests, joins HTTP threads.
  }
  scheduler_.reset();  // Drains admitted grading work, joins workers.
  server_.reset();
}

obs::HttpResponse GradingDaemon::HandleGrade(const obs::HttpRequest& request) {
  if (request.method != "POST") {
    obs::HttpResponse response;
    response.status = 405;
    response.body = "POST NDJSON submissions to /grade\n";
    return response;
  }
  if (draining()) {
    return JsonResponse(503, "{\"error\":\"daemon is draining\"}");
  }
  if (request.body.empty()) {
    return JsonResponse(
        400,
        "{\"error\":\"empty body; send one NDJSON submission per line\"}");
  }

  // Adopt the caller's distributed-trace context (or mint a fresh root for
  // a direct hit) and open the request span every line's sched.job span
  // parents under. One context per request: a multi-line body is one
  // client action, so its lines share the trace and fan out as siblings.
  obs::TraceContext ctx =
      obs::ContextFromHeader(obs::RequestHeader(request, "traceparent"));
  obs::Span request_span("daemon.grade", ctx);
  const obs::TraceContext trace =
      request_span.recording() ? request_span.context() : ctx;

  // Same line format and error taxonomy as `grade --batch`, extended with
  // per-line routing: bad lines get an error object at their position, the
  // rest of the body still grades. A line's "assignment" key routes it to
  // that shard; lines without one fall back to the daemon's default (the
  // single-tenant assignment), and are refused per-line when the daemon
  // serves several assignments and there is no unambiguous default.
  std::vector<sched::MixedItem> items;
  std::vector<size_t> submission_index;  // Line index -> items index.
  std::vector<std::string> line_errors;
  size_t pos = 0;
  while (pos < request.body.size()) {
    size_t eol = request.body.find('\n', pos);
    if (eol == std::string::npos) eol = request.body.size();
    std::string_view line(request.body.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    auto decoded = sched::ParseBatchLine(line);
    if (!decoded.ok()) {
      submission_index.push_back(SIZE_MAX);
      line_errors.push_back(decoded.status().message());
      continue;
    }
    std::string route = decoded->assignment.empty() ? default_assignment_
                                                    : decoded->assignment;
    if (route.empty()) {
      submission_index.push_back(SIZE_MAX);
      line_errors.push_back(
          "line has no \"assignment\" key and this daemon serves " +
          std::to_string(assignment_ids_.size()) +
          " assignments; add one to route the submission");
      continue;
    }
    submission_index.push_back(items.size());
    line_errors.push_back("");
    items.push_back(sched::MixedItem{std::move(route), decoded->id,
                                     std::move(decoded->source), trace});
  }
  if (submission_index.empty()) {
    return JsonResponse(
        400, "{\"error\":\"body contained no non-blank lines\"}");
  }

  sched::BatchStats stats;
  auto outcomes = scheduler_->GradeMixedBatch(items, &stats);

  size_t shed = 0;
  obs::HttpResponse response;
  response.content_type = "application/x-ndjson; charset=utf-8";
  for (size_t i = 0; i < submission_index.size(); ++i) {
    if (submission_index[i] == SIZE_MAX) {
      response.body += sched::BatchErrorToJson(
          i, Status::InvalidArgument(line_errors[i]));
      response.body += "\n";
      continue;
    }
    size_t j = submission_index[i];
    const sched::MixedOutcome& result = outcomes[j];
    if (result.status.ok()) {
      sched::AppendBatchOutcomeJson(items[j].id, i, items[j].assignment,
                                    result.outcome, &response.body);
    } else if (result.status.code() == StatusCode::kNotFound) {
      response.body += sched::BatchRejectToJson(
          items[j].id, i, items[j].assignment, 404, 0, result.status);
    } else {
      // Admission shed (kUnavailable): the client should back off and
      // retry this line, and only this line.
      ++shed;
      response.body += sched::BatchRejectToJson(
          items[j].id, i, items[j].assignment, 429, options_.retry_after_s,
          result.status);
    }
    response.body += "\n";
  }

  // Only when *every* line was shed is the whole request backpressure: the
  // response itself becomes 429 + Retry-After, the signal an open-loop
  // client keys on. Mixed outcomes stay 200 — per-line codes carry them.
  if (shed > 0 && shed == submission_index.size()) {
    response.status = 429;
    response.headers.emplace_back("Retry-After",
                                  std::to_string(options_.retry_after_s));
  }
  return response;
}

obs::HttpResponse GradingDaemon::HandleMetrics(const obs::HttpRequest&) {
  obs::HttpResponse response;
  // version=0.0.4 is the Prometheus text-exposition content type scrapers
  // negotiate on.
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = obs::Registry::Global().Render();
  return response;
}

obs::HttpResponse GradingDaemon::HandleHealthz(const obs::HttpRequest&) {
  // Readiness ladder, most urgent reason first: draining (operator asked us
  // to go), saturated (every shard at its admission quota — any submission
  // would be shed), slo_fast_burn (some tenant is spending its error
  // budget at page rate — steer away before the quota sheds), degraded
  // (recent outcomes dominated by internal faults — the infrastructure,
  // not the students, is failing), ok.
  size_t depth = scheduler_->queue_depth();
  size_t capacity = scheduler_->queue_capacity();

  size_t window_faults = 0;
  size_t window = 0;
  {
    auto events = obs::EventLog::Global().Snapshot();
    size_t start = events.size() > options_.health_window
                       ? events.size() - options_.health_window
                       : 0;
    for (size_t i = start; i < events.size(); ++i) {
      ++window;
      if (events[i].failure_class == "internal_fault") ++window_faults;
    }
  }

  const char* status = "ok";
  int http_status = 200;
  if (draining()) {
    status = "draining";
    http_status = 503;
  } else if (scheduler_->Saturated()) {
    status = "saturated";
    http_status = 503;
  } else if (options_.slo_health &&
             obs::SloTracker::Global().FastBurnAny(obs::SloTracker::NowS())) {
    status = "slo_fast_burn";
    http_status = 503;
  } else if (window >= options_.health_window / 2 &&
             window_faults * 2 > window) {
    status = "degraded";
    http_status = 503;
  }

  std::string body = "{\"status\":\"";
  body += status;
  body += "\",\"queue_depth\":" + std::to_string(depth);
  body += ",\"queue_capacity\":" + std::to_string(capacity);
  body += ",\"recent_graded\":" + std::to_string(window);
  body += ",\"recent_internal_faults\":" + std::to_string(window_faults);
  body += "}";
  return JsonResponse(http_status, std::move(body));
}

obs::HttpResponse GradingDaemon::HandleStatusz(const obs::HttpRequest&) {
  auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::steady_clock::now() - started_)
                    .count();
  int64_t busy = CounterValue("jfeed_sched_busy_us_total");
  int64_t idle = CounterValue("jfeed_sched_idle_us_total");
  double utilization =
      busy + idle > 0 ? static_cast<double>(busy) / (busy + idle) : 0.0;

  std::string body = "{\"build\":{\"version\":\"";
  body += kJfeedVersion;
  body += "\",\"compiler\":\"";
  body += __VERSION__;
  body += "\",\"obs\":\"on\"}";
  // Single-tenant daemons keep the scalar "assignment" field; multi-tenant
  // ones report "*" there (back-compat for dashboards keyed on it) and the
  // real list under "assignments".
  body += ",\"assignment\":\"";
  body += default_assignment_.empty() ? "*" : default_assignment_;
  body += "\"";
  body += ",\"assignments\":[";
  for (size_t i = 0; i < assignment_ids_.size(); ++i) {
    if (i > 0) body += ",";
    body += "\"" + assignment_ids_[i] + "\"";
  }
  body += "]";
  body += ",\"worker_id\":" + std::to_string(options_.worker_id);
  body += ",\"uptime_s\":" + std::to_string(uptime);
  body += ",\"start_unix_ms\":" + std::to_string(start_unix_ms_);
  body += ",\"draining\":";
  body += draining() ? "true" : "false";

  body += ",\"scheduler\":{\"jobs\":" + std::to_string(scheduler_->jobs());
  body += ",\"queue_depth\":" + std::to_string(scheduler_->queue_depth());
  body +=
      ",\"queue_capacity\":" + std::to_string(scheduler_->queue_capacity());
  body += ",\"shard_quota\":" +
          std::to_string(scheduler_->shard_queue_capacity());
  body += ",\"jobs_total\":" +
          std::to_string(CounterValue("jfeed_sched_jobs_total"));
  body += ",\"busy_us\":" + std::to_string(busy);
  body += ",\"idle_us\":" + std::to_string(idle);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", utilization);
  body += ",\"utilization\":";
  body += buf;
  // Per-assignment breakdown: in-system depth plus the labeled counters
  // (jfeed_sched_jobs_total{assignment=...}, jfeed_shed_total{...}).
  body += ",\"shards\":[";
  for (size_t i = 0; i < assignment_ids_.size(); ++i) {
    const std::string& id = assignment_ids_[i];
    if (i > 0) body += ",";
    body += "{\"assignment\":\"" + id + "\"";
    body += ",\"depth\":" + std::to_string(scheduler_->ShardDepth(id));
    body += ",\"graded\":" +
            std::to_string(ShardCounterValue("jfeed_sched_jobs_total", id));
    body += ",\"shed\":" +
            std::to_string(ShardCounterValue("jfeed_shed_total", id));
    body += "}";
  }
  body += "]}";

  body += ",\"cache\":{\"enabled\":";
  const sched::ResultCache* cache = scheduler_->cache();
  body += cache != nullptr ? "true" : "false";
  if (cache != nullptr) {
    sched::CacheStats stats = cache->stats();
    body += ",\"hits\":" + std::to_string(stats.hits);
    body += ",\"misses\":" + std::to_string(stats.misses);
    body += ",\"insertions\":" + std::to_string(stats.insertions);
    body += ",\"evictions\":" + std::to_string(stats.evictions);
    std::snprintf(buf, sizeof(buf), "%.4f", stats.HitRate());
    body += ",\"hit_rate\":";
    body += buf;
    body += ",\"entries\":" + std::to_string(cache->size());
  }
  body += "}";

  body += ",\"events\":{\"recorded\":" +
          std::to_string(obs::EventLog::Global().size());
  body += ",\"capacity\":" +
          std::to_string(obs::EventLog::Global().capacity());
  body += ",\"dropped\":" +
          std::to_string(obs::EventLog::Global().DroppedCount());
  body += "}";

  body += ",\"tracer\":{\"open_spans\":" +
          std::to_string(obs::Tracer::Global().OpenSpanCount());
  body += ",\"dropped\":" +
          std::to_string(obs::Tracer::Global().DroppedCount());
  body += "}}";
  return JsonResponse(200, std::move(body));
}

obs::HttpResponse GradingDaemon::HandleTracez(const obs::HttpRequest& request) {
  // ?format=chrome renders the rings as a Chrome/Perfetto trace instead of
  // the span listing; ?pid=N sets the export's process id so the broker
  // can splice several workers' exports into one stitched timeline.
  if (ParseQueryValue(request.query, "format") == "chrome") {
    int pid = 1;
    std::string pid_value = ParseQueryValue(request.query, "pid");
    if (!pid_value.empty()) pid = std::atoi(pid_value.c_str());
    std::string process_name =
        options_.worker_id >= 0
            ? "jfeedd-worker-" + std::to_string(options_.worker_id)
            : "jfeedd";
    return JsonResponse(
        200, obs::Tracer::Global().ExportChromeJson(pid, process_name));
  }

  size_t limit = ParseLimit(request.query, 256);
  auto spans = obs::Tracer::Global().Snapshot();  // Sorted by start time.
  size_t start = limit > 0 && spans.size() > limit ? spans.size() - limit : 0;

  std::string body = "{\"open_spans\":" +
                     std::to_string(obs::Tracer::Global().OpenSpanCount());
  body += ",\"dropped\":" +
          std::to_string(obs::Tracer::Global().DroppedCount());
  body += ",\"spans\":[";
  for (size_t i = start; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (i > start) body += ",";
    body += "{\"name\":\"";
    body += s.name;  // Span names are identifier-like literals; no escapes.
    body += "\",\"id\":" + std::to_string(s.id);
    body += ",\"parent\":" + std::to_string(s.parent_id);
    body += ",\"tid\":" + std::to_string(s.tid);
    body += ",\"start_us\":" + std::to_string(s.start_ns / 1000);
    body += ",\"dur_us\":" + std::to_string((s.end_ns - s.start_ns) / 1000);
    if ((s.trace_hi | s.trace_lo) != 0) {
      body += ",\"trace_id\":\"" +
              obs::TraceIdHex(obs::TraceContext{s.trace_hi, s.trace_lo, 0}) +
              "\"";
    }
    body += "}";
  }
  body += "]}";
  return JsonResponse(200, std::move(body));
}

obs::HttpResponse GradingDaemon::HandleEvents(const obs::HttpRequest& request) {
  size_t limit = ParseLimit(request.query, 0);
  std::string assignment = ParseQueryValue(request.query, "assignment");
  std::string trace_id = ParseQueryValue(request.query, "trace_id");
  obs::HttpResponse response;
  response.content_type = "application/x-ndjson; charset=utf-8";
  if (assignment.empty() && trace_id.empty()) {
    response.body = obs::EventLog::Global().RenderNdjson(limit);
    return response;
  }
  // ?assignment=<id> narrows the recorder to one tenant's submissions (the
  // multi-tenant debugging view); ?trace_id=<32 hex> to one distributed
  // trace's submissions (the cross-process join); both compose. limit
  // keeps the newest N matches.
  auto events = obs::EventLog::Global().Snapshot();
  std::vector<const obs::WideEvent*> matched;
  for (const auto& event : events) {
    if (!assignment.empty() && event.assignment != assignment) continue;
    if (!trace_id.empty() && event.trace_id != trace_id) continue;
    matched.push_back(&event);
  }
  size_t start = limit > 0 && matched.size() > limit ? matched.size() - limit
                                                     : 0;
  for (size_t i = start; i < matched.size(); ++i) {
    response.body += obs::ToJson(*matched[i]);
    response.body += "\n";
  }
  return response;
}

obs::HttpResponse GradingDaemon::HandleSloz(const obs::HttpRequest&) {
  return JsonResponse(200, obs::SloTracker::Global().RenderSlozJson(
                               obs::SloTracker::NowS()));
}

}  // namespace jfeed::service
