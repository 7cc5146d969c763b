#ifndef JFEED_SERVICE_DAEMON_H_
#define JFEED_SERVICE_DAEMON_H_

// The jfeedd grading daemon: a long-running serving wrapper around
// sched::ShardedScheduler + service::GradingPipeline that hosts the live
// introspection surface. One instance serves one or many knowledge-base
// assignments (multi-tenant) on loopback:
//
//   POST /grade     NDJSON submissions in (grade --batch line format; each
//                   line may carry an "assignment" routing key),
//                   NDJSON GradingOutcomes out, input order preserved.
//                   Per-line failure modes stay per-line: an unknown
//                   assignment id answers a code:404 error object, an
//                   admission shed (that assignment's shard is at quota) a
//                   code:429 object with retry_after_s. Only when *every*
//                   line was shed does the response itself become HTTP 429
//                   with a Retry-After header — the backpressure signal an
//                   open-loop client (jfeed-loadgen) keys on.
//   GET  /metrics   Prometheus text exposition (Registry::Render)
//   GET  /healthz   readiness: 200 while serving, 503 while draining,
//                   saturated (every shard at its admission quota) or
//                   degraded (recent grades dominated by internal faults)
//                   — see DESIGN.md §6b
//   GET  /statusz   build info, uptime, scheduler utilization, cache hit
//                   rate, one JSON object
//   GET  /tracez    recent spans from the tracer rings as JSON; add
//                   ?format=chrome[&pid=N] for a Chrome/Perfetto trace
//   GET  /events    the per-submission flight recorder ring as NDJSON
//                   (?assignment= and ?trace_id= filters)
//   GET  /sloz      per-assignment SLO budgets + burn rates as JSON
//
// Lifecycle: Start() enables the observability layer (registry, tracer,
// event log), spins up the scheduler and the HTTP server; BeginDrain()
// flips /healthz to 503 and rejects new grade work while scrapes keep
// working — the window a load balancer needs to stop routing; Stop()
// closes the server, drains in-flight grading and joins everything. The
// tools/jfeedd.cc main wires SIGINT/SIGTERM to BeginDrain+Stop.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/http_server.h"
#include "obs/slo.h"
#include "sched/sharded_scheduler.h"
#include "service/pipeline.h"
#include "support/status.h"

namespace jfeed::service {

/// Version string served in /statusz build info.
extern const char kJfeedVersion[];

struct DaemonOptions {
  /// Single-tenant form: serve exactly this assignment (lines that omit
  /// "assignment" route here). Mutually exclusive with `assignments`.
  std::string assignment_id;
  /// Multi-tenant form: serve these assignments, one scheduler shard each.
  /// When both this and assignment_id are empty, every assignment in the
  /// knowledge base is loaded (the MOOC deployment shape: one process, all
  /// twelve assignments).
  std::vector<std::string> assignments;
  /// Loopback port; 0 picks an ephemeral one (read back via port()).
  uint16_t port = 0;
  /// Worker threads shared across every assignment shard.
  int jobs = 4;
  /// Per-assignment admission quota: submissions of one assignment in the
  /// system (queued or grading) before further ones are shed with 429.
  /// 0 = 256 when single-tenant, 64 per assignment when multi-tenant.
  size_t shard_queue_capacity = 0;
  /// Retry-After header value (seconds) on fully-shed (HTTP 429) responses
  /// and the retry_after_s hint on per-line sheds.
  int retry_after_s = 1;
  bool use_result_cache = true;
  /// Method-level incremental grading (DESIGN.md §3d): resubmissions reuse
  /// the unedited methods' graphs and match cells across requests.
  bool use_method_cache = false;
  /// Flight-recorder ring capacity.
  size_t event_capacity = obs::EventLog::kDefaultCapacity;
  /// Tracer ring capacity per thread (0 = leave the tracer disabled).
  size_t trace_ring_capacity = 1u << 12;
  /// Per-submission pipeline tuning (functional budget, execution guards,
  /// match options).
  PipelineOptions pipeline;
  /// HTTP connection workers.
  int http_workers = 4;
  /// /healthz degradation window: the daemon reports "degraded" when more
  /// than half of the last `health_window` graded submissions failed with
  /// class internal_fault (infrastructure trouble, not student error).
  /// Needs at least health_window/2 recorded events to trip.
  size_t health_window = 32;
  /// Fleet worker id when this daemon runs as a supervised jfeed-broker
  /// worker (--worker-id); -1 when standalone. Surfaced in /statusz so an
  /// operator can tell workers apart behind the broker.
  int worker_id = -1;
  /// Per-assignment SLO objectives (latency threshold, availability target,
  /// burn windows) — /sloz and the jfeed_slo_* metrics report against
  /// these. Defaults are generous enough that an untuned daemon never
  /// trips; tighten via the jfeedd --slo-* flags.
  obs::SloPolicy slo;
  /// When set, a fast-burning tenant degrades /healthz ("slo_fast_burn",
  /// 503) so the load balancer steers away before the admission quota has
  /// to shed.
  bool slo_health = true;
};

class GradingDaemon {
 public:
  explicit GradingDaemon(DaemonOptions options);
  ~GradingDaemon();

  GradingDaemon(const GradingDaemon&) = delete;
  GradingDaemon& operator=(const GradingDaemon&) = delete;

  /// Resolves the assignment, enables the observability layer, starts the
  /// scheduler and the HTTP server. Fails on an unknown assignment id or
  /// an unbindable port.
  Status Start();

  /// Stops accepting grade work: POST /grade answers 503 and /healthz
  /// reports "draining" — introspection endpoints keep serving so the
  /// drain itself is observable. Idempotent.
  void BeginDrain();

  /// BeginDrain + closes the HTTP server (finishing in-flight requests)
  /// and drains the scheduler. Idempotent; also run by the destructor.
  void Stop();

  /// Bound port once Start() succeeded.
  uint16_t port() const { return server_ != nullptr ? server_->port() : 0; }
  bool serving() const { return server_ != nullptr && server_->serving(); }
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

 private:
  obs::HttpResponse HandleGrade(const obs::HttpRequest& request);
  obs::HttpResponse HandleMetrics(const obs::HttpRequest& request);
  obs::HttpResponse HandleHealthz(const obs::HttpRequest& request);
  obs::HttpResponse HandleStatusz(const obs::HttpRequest& request);
  obs::HttpResponse HandleTracez(const obs::HttpRequest& request);
  obs::HttpResponse HandleEvents(const obs::HttpRequest& request);
  obs::HttpResponse HandleSloz(const obs::HttpRequest& request);

  DaemonOptions options_;
  /// Assignment ids actually served, in shard order (resolved in Start()).
  std::vector<std::string> assignment_ids_;
  /// The id unrouted lines default to (single-tenant mode), "" when every
  /// line must carry its own "assignment" key.
  std::string default_assignment_;
  std::unique_ptr<sched::ShardedScheduler> scheduler_;
  std::unique_ptr<obs::HttpServer> server_;
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point started_;
  int64_t start_unix_ms_ = 0;
};

}  // namespace jfeed::service

#endif  // JFEED_SERVICE_DAEMON_H_
