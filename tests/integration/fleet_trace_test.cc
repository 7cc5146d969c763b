// End-to-end distributed tracing across the fleet: one trace id, minted at
// the broker edge, must survive routing, a mid-request worker crash, the
// retry onto a surviving worker, the worker's grading pipeline, the
// flight-recorder wide event, and the federated Chrome-trace export. The
// setup mirrors fleet_chaos_test.cc — real in-process GradingDaemons under
// fleet::Router with deterministic fault injection — so every per-request
// retry decision is exactly reproducible. Real multi-process federation
// (broker /tracez scraping worker rings over HTTP) is exercised by the CI
// fleet-smoke job; in-process the workers share one Tracer, so the stitch
// here runs over one export per logical process role.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fleet/router.h"
#include "fleet/scrape.h"
#include "kb/assignments.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "service/daemon.h"
#include "support/fault.h"
#include "support/json.h"

namespace jfeed {
namespace {

class FleetTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EventLog::Global().Clear();
    obs::Registry::Global().ResetForTest();
    obs::Tracer::Global().Clear();
  }

  void TearDown() override {
    fault::Injector::Get().Disable();
    workers_.clear();
    obs::Tracer::Global().Disable();
    obs::Tracer::Global().Clear();
    obs::EventLog::Global().set_enabled(false);
    obs::EventLog::Global().Clear();
    obs::Registry::Global().set_enabled(false);
    obs::Registry::Global().ResetForTest();
  }

  /// Starts `count` real grading daemons on ephemeral ports. Daemon Start
  /// enables the process-wide Tracer, so spans record from here on.
  void StartWorkers(int count) {
    for (int i = 0; i < count; ++i) {
      service::DaemonOptions options;
      options.assignment_id = "assignment1";
      options.jobs = 2;
      auto worker = std::make_unique<service::GradingDaemon>(options);
      ASSERT_TRUE(worker->Start().ok());
      workers_.push_back(std::move(worker));
    }
  }

  fleet::RouterPolicy TracePolicy() {
    fleet::RouterPolicy policy;
    policy.request_deadline_ms = 10'000;
    policy.max_attempts = 4;
    policy.retry_backoff = {1, 4, 0.0};
    policy.breaker.failure_threshold = 1000;  // Retries without breaker noise.
    policy.probe_deadline_ms = 2000;
    return policy;
  }

  std::string GradeBody(const std::string& id) {
    const auto& assignment = kb::KnowledgeBase::Get().assignment("assignment1");
    std::string body = "{\"id\":\"" + id + "\",\"source\":";
    AppendJsonString(assignment.Reference(), &body);
    return body + "}\n";
  }

  std::vector<std::unique_ptr<service::GradingDaemon>> workers_;
};

TEST_F(FleetTraceTest, OneTraceIdSurvivesWorkerCrashAndRetry) {
  StartWorkers(2);
  fleet::Router router(TracePolicy());
  router.AddWorker(0, workers_[0]->port());
  router.AddWorker(1, workers_[1]->port());
  router.ProbeOnce();
  ASSERT_EQ(router.RoutableCount(), 2u);

  // Half of all dispatches crash the worker mid-request; the same seeded
  // decision sequence as fleet_chaos_test guarantees at least one request
  // survives only via retry.
  fault::FaultConfig config;
  config.seed = 7;
  config.probability = 0.5;
  config.only_point = fault::points::kFleetWorkerGrade;
  config.code = StatusCode::kUnavailable;
  fault::ScopedFaultInjection chaos(config);

  // Drive requests until one grades after a mid-flight crash, carrying a
  // broker-minted trace context the whole way.
  std::string survivor_id;
  std::string survivor_trace;
  obs::HttpResponse survivor_response;
  for (int i = 0; i < 24 && survivor_id.empty(); ++i) {
    obs::TraceContext ctx = obs::MintTraceContext();
    std::string id = "trace-" + std::to_string(i);
    int64_t hits_before =
        fault::Injector::Get().Hits(fault::points::kFleetWorkerGrade);
    obs::HttpResponse response = router.RouteGrade(GradeBody(id), ctx);
    int64_t attempts =
        fault::Injector::Get().Hits(fault::points::kFleetWorkerGrade) -
        hits_before;
    if (response.status == 200 && attempts > 1) {
      survivor_id = id;
      survivor_trace = obs::TraceIdHex(ctx);
      survivor_response = response;
    }
  }
  ASSERT_FALSE(survivor_id.empty())
      << "no submission graded after a mid-flight crash in 24 requests";

  // 1. The graded response line carries the broker's trace id.
  EXPECT_NE(
      survivor_response.body.find("\"trace_id\":\"" + survivor_trace + "\""),
      std::string::npos)
      << survivor_response.body;

  // 2. The surviving worker's flight-recorder wide event joins on it.
  bool event_found = false;
  for (const auto& event : obs::EventLog::Global().Snapshot()) {
    if (event.submission_id != survivor_id) continue;
    event_found = true;
    EXPECT_EQ(event.trace_id, survivor_trace);
    EXPECT_FALSE(event.span_id.empty());
  }
  EXPECT_TRUE(event_found)
      << "no wide event for " << survivor_id << " in the flight recorder";

  // 3. The span tree: one fleet.route root, the failed and retried
  //    attempts as sibling children under it, and the worker-side
  //    daemon.grade span — all on the one trace.
  uint64_t route_span_id = 0;
  std::vector<obs::SpanRecord> attempt_spans;
  bool worker_span_on_trace = false;
  for (const auto& span : obs::Tracer::Global().Snapshot()) {
    if (obs::TraceIdHex(
            obs::TraceContext{span.trace_hi, span.trace_lo, 0}) !=
        survivor_trace) {
      continue;
    }
    std::string name = span.name;
    if (name == "fleet.route") {
      route_span_id = span.id;
    } else if (name == "fleet.attempt") {
      attempt_spans.push_back(span);
    } else if (name == "daemon.grade") {
      worker_span_on_trace = true;
    }
  }
  ASSERT_NE(route_span_id, 0u) << "no fleet.route span on the trace";
  ASSERT_GE(attempt_spans.size(), 2u)
      << "crash + retry must record at least two attempt spans";
  int retried = 0;
  for (const auto& attempt : attempt_spans) {
    EXPECT_EQ(attempt.parent_id, route_span_id)
        << "attempts must be siblings under the route span";
    EXPECT_NE(attempt.detail.find("worker="), std::string::npos)
        << attempt.detail;
    if (attempt.detail.find("retry_cause=") != std::string::npos) ++retried;
  }
  EXPECT_GE(retried, 1) << "the retried attempt must name its cause";
  EXPECT_TRUE(worker_span_on_trace)
      << "the surviving worker's daemon.grade span must share the trace";

  // 4. The federated export: stitching the per-process Chrome exports
  //    (broker lane + worker lane) keeps the trace id visible in one
  //    Perfetto-loadable document.
  std::string stitched = fleet::StitchChromeTraces(
      {obs::Tracer::Global().ExportChromeJson(0, "jfeed-broker")});
  EXPECT_NE(stitched.find(survivor_trace), std::string::npos);
  EXPECT_NE(stitched.find("\"fleet.attempt\""), std::string::npos);
  EXPECT_NE(stitched.find("\"daemon.grade\""), std::string::npos);

  // No fault path may leak an open span.
  EXPECT_EQ(obs::Tracer::Global().OpenSpanCount(), 0);
}

TEST_F(FleetTraceTest, LegacyUntracedRouteStillGrades) {
  // The single-argument RouteGrade (no caller context) must keep working:
  // the route span mints its own trace and the grade succeeds.
  StartWorkers(1);
  fleet::Router router(TracePolicy());
  router.AddWorker(0, workers_[0]->port());
  router.ProbeOnce();
  obs::HttpResponse response = router.RouteGrade(GradeBody("untraced-0"));
  ASSERT_EQ(response.status, 200) << response.body;
  // The worker still stamps a (minted) trace id into the outcome.
  EXPECT_NE(response.body.find("\"trace_id\":\""), std::string::npos);
}

}  // namespace
}  // namespace jfeed
