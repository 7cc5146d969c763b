#ifndef JFEED_FLEET_BROKER_H_
#define JFEED_FLEET_BROKER_H_

// jfeed-broker: the fault-isolation front end for a fleet of jfeedd
// workers. One broker process owns N supervised jfeedd child processes
// (fleet/supervisor.h), routes POST /grade across the healthy ones with
// retries and per-worker circuit breakers (fleet/router.h), and exposes a
// single aggregated introspection surface:
//
//   POST /grade    forwarded to a healthy worker; transparent retry onto a
//                  different worker on crash/timeout; 503 + Retry-After
//                  when the fleet is saturated or has no routable worker.
//   GET /metrics   the broker's own jfeed_fleet_* instruments plus every
//                  reachable worker's metrics merged into one exposition,
//                  each worker sample tagged worker="<id>".
//   GET /healthz   fleet readiness: ok / draining / unavailable.
//   GET /statusz   fleet topology — per worker: pid, port, probed health,
//                  breaker state, restart count, and the worker's own
//                  /statusz embedded verbatim.
//   GET /tracez    the stitched fleet trace: the broker's own routing spans
//                  (pid 0) spliced with every reachable worker's
//                  /tracez?format=chrome export (pid = worker id + 1) into
//                  one Chrome/Perfetto trace_event document.
//   GET /sloz      fleet SLO view: every worker's /sloz aggregated per
//                  assignment (obs::AggregateSloz).
//
// Every routing attempt forwards the request's W3C traceparent (adopted
// from the client or minted here) to the worker, so one trace id follows a
// submission through broker retry onto the worker that finally grades it.
//
// Lifecycle mirrors jfeedd: Start() spawns the fleet and serves;
// BeginDrain() flips /healthz to 503, stops admitting grades, and forwards
// SIGTERM to every worker (each finishes its in-flight grades before
// exiting); Stop() tears everything down. A worker crash is invisible to
// clients beyond latency: the supervisor restarts it with backoff while
// the router sends traffic elsewhere.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/router.h"
#include "fleet/supervisor.h"
#include "obs/http_server.h"
#include "support/status.h"

namespace jfeed::fleet {

struct BrokerOptions {
  /// Broker listen port on 127.0.0.1; 0 picks an ephemeral port.
  uint16_t port = 0;
  /// Worker processes to supervise.
  int workers = 3;
  /// Builds each worker's argv from (worker id, port) — typically the
  /// jfeedd command line with --port and --worker-id filled in.
  CommandBuilder worker_command;
  RouterPolicy router;
  SupervisorOptions supervisor;
  /// Broker-side HTTP connection workers.
  int http_workers = 4;
  /// Deadline for scraping one worker's /metrics, /statusz, /tracez or
  /// /sloz during aggregation.
  int64_t scrape_deadline_ms = 2'000;
  /// Broker-side tracer ring capacity per thread (0 = tracing off; the
  /// stitched /tracez then shows worker spans only).
  size_t trace_ring_capacity = 1u << 12;
};

class Broker {
 public:
  explicit Broker(BrokerOptions options);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Spawns the worker fleet, starts probing, binds the HTTP front end.
  Status Start();

  /// Graceful shutdown, phase 1: stop admitting grade requests (/healthz
  /// 503, POST /grade 503), SIGTERM the fleet and wait for workers to
  /// finish their in-flight grades. Idempotent.
  void BeginDrain();

  /// Graceful shutdown, phase 2: stop probing, stop serving, reap the
  /// fleet. Run by the destructor.
  void Stop();

  uint16_t port() const;
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  Router& router() { return router_; }
  Supervisor& supervisor() { return *supervisor_; }

 private:
  obs::HttpResponse HandleGrade(const obs::HttpRequest& request);
  obs::HttpResponse HandleMetrics(const obs::HttpRequest& request);
  obs::HttpResponse HandleHealthz(const obs::HttpRequest& request);
  obs::HttpResponse HandleStatusz(const obs::HttpRequest& request);
  obs::HttpResponse HandleTracez(const obs::HttpRequest& request);
  obs::HttpResponse HandleSloz(const obs::HttpRequest& request);

  BrokerOptions options_;
  Router router_;
  std::unique_ptr<Supervisor> supervisor_;
  std::unique_ptr<obs::HttpServer> server_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
};

}  // namespace jfeed::fleet

#endif  // JFEED_FLEET_BROKER_H_
