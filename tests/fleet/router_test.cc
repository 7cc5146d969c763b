#include "fleet/router.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace jfeed::fleet {
namespace {

/// A scriptable in-process stand-in for one jfeedd worker: /healthz and
/// /grade behaviour are switchable at runtime, so one test can walk a
/// worker through healthy -> failing -> recovered without real processes.
class FakeWorker {
 public:
  FakeWorker() {
    server_.Handle("/healthz", [this](const obs::HttpRequest&) {
      obs::HttpResponse response;
      response.status = healthz_status_.load();
      response.body = "{}";
      return response;
    });
    server_.Handle("/grade", [this](const obs::HttpRequest& request) {
      grade_calls_.fetch_add(1);
      obs::HttpResponse response;
      response.status = grade_status_.load();
      std::lock_guard<std::mutex> lock(mutex_);
      response.body = grade_body_.empty()
                          ? "worker:" + name_ + ":" + request.body
                          : grade_body_;
      for (const auto& header : grade_headers_) response.headers.push_back(header);
      return response;
    });
  }

  void Start(const std::string& name) {
    name_ = name;
    ASSERT_TRUE(server_.Start().ok());
  }
  void Stop() { server_.Stop(); }
  uint16_t port() const { return server_.port(); }

  void set_healthz_status(int status) { healthz_status_.store(status); }
  void set_grade_status(int status) { grade_status_.store(status); }
  /// Scripted /grade response body ("" = echo the request) and extra headers.
  void set_grade_body(std::string body) {
    std::lock_guard<std::mutex> lock(mutex_);
    grade_body_ = std::move(body);
  }
  void add_grade_header(std::string name, std::string value) {
    std::lock_guard<std::mutex> lock(mutex_);
    grade_headers_.emplace_back(std::move(name), std::move(value));
  }
  int grade_calls() const { return grade_calls_.load(); }

 private:
  std::string name_;
  obs::HttpServer server_;
  std::atomic<int> healthz_status_{200};
  std::atomic<int> grade_status_{200};
  std::atomic<int> grade_calls_{0};
  std::mutex mutex_;
  std::string grade_body_;
  std::vector<std::pair<std::string, std::string>> grade_headers_;
};

RouterPolicy FastPolicy() {
  RouterPolicy policy;
  policy.request_deadline_ms = 2000;
  policy.max_attempts = 3;
  policy.retry_backoff = {1, 4, 0.0};
  policy.breaker.failure_threshold = 2;
  policy.breaker.open_cooldown_ms = 50;
  policy.probe_deadline_ms = 500;
  policy.down_after_probe_failures = 1;
  return policy;
}

class RouterTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::Registry::Global().ResetForTest(); }
};

TEST_F(RouterTest, WorkersBecomeRoutableViaProbesAndServeGrades) {
  FakeWorker worker;
  worker.Start("a");
  Router router(FastPolicy());
  router.AddWorker(0, worker.port());
  EXPECT_EQ(router.RoutableCount(), 0u);  // kDown until probed.

  router.ProbeOnce();
  EXPECT_EQ(router.RoutableCount(), 1u);

  obs::HttpResponse response = router.RouteGrade("{\"id\":\"s1\"}");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "worker:a:{\"id\":\"s1\"}");
}

TEST_F(RouterTest, NoRoutableWorkerShedsWith503AndRetryAfter) {
  Router router(FastPolicy());
  router.AddWorker(0, 1);  // Port 1: nothing listens; never probed up.
  obs::HttpResponse response = router.RouteGrade("x");
  EXPECT_EQ(response.status, 503);
  ASSERT_EQ(response.headers.size(), 1u);
  EXPECT_EQ(response.headers[0].first, "Retry-After");
}

TEST_F(RouterTest, DeadWorkerRetriesOntoSurvivor) {
  FakeWorker a, b;
  a.Start("a");
  b.Start("b");
  Router router(FastPolicy());
  router.AddWorker(0, a.port());
  router.AddWorker(1, b.port());
  router.ProbeOnce();
  ASSERT_EQ(router.RoutableCount(), 2u);

  // Worker a dies after probes marked it up: the next grade routed to it
  // fails at the transport level and must be retried on b transparently.
  a.Stop();
  for (int i = 0; i < 4; ++i) {
    obs::HttpResponse response = router.RouteGrade("s");
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.body, "worker:b:s");
  }
  EXPECT_GE(b.grade_calls(), 4);
}

TEST_F(RouterTest, RepeatedFailuresTripTheBreakerThenProbeRecovers) {
  FakeWorker worker;
  worker.Start("a");
  worker.set_grade_status(500);  // Healthy transport, broken grading.
  RouterPolicy policy = FastPolicy();
  policy.max_attempts = 1;
  Router router(policy);
  router.AddWorker(0, worker.port());
  router.ProbeOnce();

  // failure_threshold=2: two failed grades trip the breaker.
  EXPECT_EQ(router.RouteGrade("x").status, 502);
  EXPECT_EQ(router.RouteGrade("x").status, 502);
  auto snapshot = router.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].breaker, BreakerState::kOpen);
  EXPECT_EQ(snapshot[0].breaker_trips, 1);
  EXPECT_EQ(router.RoutableCount(), 0u);
  // Tripped: requests shed instead of hammering the worker.
  EXPECT_EQ(router.RouteGrade("x").status, 503);

  // The worker recovers; once the cooldown elapses a probe takes the
  // half-open trial and re-admits it — no student submission was gambled.
  worker.set_grade_status(200);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  router.ProbeOnce();
  snapshot = router.Snapshot();
  EXPECT_EQ(snapshot[0].breaker, BreakerState::kClosed);
  EXPECT_EQ(router.RoutableCount(), 1u);
  EXPECT_EQ(router.RouteGrade("x").status, 200);
}

TEST_F(RouterTest, ClientErrorsRelayWithoutRetry) {
  FakeWorker worker;
  worker.Start("a");
  worker.set_grade_status(400);
  Router router(FastPolicy());
  router.AddWorker(0, worker.port());
  router.ProbeOnce();

  obs::HttpResponse response = router.RouteGrade("not json");
  EXPECT_EQ(response.status, 400);
  // A 4xx is the client's fault: exactly one attempt, breaker untouched.
  EXPECT_EQ(worker.grade_calls(), 1);
  EXPECT_EQ(router.Snapshot()[0].breaker, BreakerState::kClosed);
}

TEST_F(RouterTest, DegradedWorkerIsNotRoutedButBreakerStaysClosed) {
  FakeWorker worker;
  worker.Start("a");
  worker.set_healthz_status(503);  // Alive but draining/saturated.
  Router router(FastPolicy());
  router.AddWorker(0, worker.port());
  router.ProbeOnce();

  auto snapshot = router.Snapshot();
  EXPECT_EQ(snapshot[0].health, WorkerHealth::kDegraded);
  EXPECT_EQ(snapshot[0].breaker, BreakerState::kClosed);
  EXPECT_EQ(router.RoutableCount(), 0u);

  // The drain ends; the next probe restores routing.
  worker.set_healthz_status(200);
  router.ProbeOnce();
  EXPECT_EQ(router.RoutableCount(), 1u);
}

TEST_F(RouterTest, UnreachableWorkerGoesDownAndTripsViaProbes) {
  Router router(FastPolicy());
  FakeWorker worker;
  worker.Start("a");
  router.AddWorker(0, worker.port());
  router.ProbeOnce();
  ASSERT_EQ(router.RoutableCount(), 1u);

  // The process dies while idle: probe failures alone (no grade traffic)
  // must take it out of rotation and trip its breaker.
  worker.Stop();
  router.ProbeOnce();
  router.ProbeOnce();
  auto snapshot = router.Snapshot();
  EXPECT_EQ(snapshot[0].health, WorkerHealth::kDown);
  EXPECT_EQ(snapshot[0].breaker, BreakerState::kOpen);
}

TEST_F(RouterTest, SupervisorRestartHookResetsBreakerAndHealth) {
  FakeWorker old_worker;
  old_worker.Start("old");
  old_worker.set_grade_status(500);
  RouterPolicy policy = FastPolicy();
  policy.max_attempts = 1;
  Router router(policy);
  router.AddWorker(0, old_worker.port());
  router.ProbeOnce();
  router.RouteGrade("x");
  router.RouteGrade("x");
  ASSERT_EQ(router.Snapshot()[0].breaker, BreakerState::kOpen);

  // Supervisor replaces the process: fresh port, fresh breaker; the first
  // probe re-admits it with no cooldown debt from the dead predecessor.
  FakeWorker new_worker;
  new_worker.Start("new");
  router.SetWorkerPort(0, new_worker.port());
  EXPECT_EQ(router.Snapshot()[0].breaker, BreakerState::kClosed);
  router.ProbeOnce();
  EXPECT_EQ(router.RoutableCount(), 1u);
  EXPECT_EQ(router.RouteGrade("x").status, 200);
  old_worker.Stop();
}

TEST_F(RouterTest, InflightCapSheds) {
  RouterPolicy policy = FastPolicy();
  policy.max_inflight = 0;  // Degenerate cap: every request sheds.
  FakeWorker worker;
  worker.Start("a");
  Router router(policy);
  router.AddWorker(0, worker.port());
  router.ProbeOnce();

  obs::HttpResponse response = router.RouteGrade("x");
  EXPECT_EQ(response.status, 503);
  ASSERT_EQ(response.headers.size(), 1u);
  EXPECT_EQ(response.headers[0].first, "Retry-After");
  EXPECT_EQ(worker.grade_calls(), 0);
}

TEST_F(RouterTest, MixedAssignmentBodyIsForwardedVerbatim) {
  // Multi-tenant routing lives in the workers: the broker must pass each
  // line's "assignment" key through byte-for-byte, both directions.
  FakeWorker worker;
  worker.Start("a");
  Router router(FastPolicy());
  router.AddWorker(0, worker.port());
  router.ProbeOnce();

  const std::string body =
      "{\"id\":\"s1\",\"assignment\":\"assignment1\",\"source\":\"a\"}\n"
      "{\"id\":\"s2\",\"assignment\":\"mitx-polynomials\",\"source\":\"b\"}\n";
  obs::HttpResponse response = router.RouteGrade(body);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "worker:a:" + body);
  EXPECT_EQ(worker.grade_calls(), 1);
}

TEST_F(RouterTest, WorkerBackpressureRelaysWithoutRetry) {
  // A worker-side 429 (every line shed at admission) is the student's
  // backpressure signal, not a broker failure: exactly one attempt, the
  // Retry-After header relayed, breaker untouched.
  FakeWorker a, b;
  a.Start("a");
  b.Start("b");
  a.set_grade_status(429);
  a.add_grade_header("Retry-After", "7");
  b.set_grade_status(429);
  b.add_grade_header("Retry-After", "7");
  Router router(FastPolicy());
  router.AddWorker(0, a.port());
  router.AddWorker(1, b.port());
  router.ProbeOnce();

  obs::HttpResponse response = router.RouteGrade("x");
  EXPECT_EQ(response.status, 429);
  // One attempt total: the shed was not retried onto the other worker.
  EXPECT_EQ(a.grade_calls() + b.grade_calls(), 1);
  std::string retry_after;
  for (const auto& [name, value] : response.headers) {
    if (name == "Retry-After") retry_after = value;
  }
  EXPECT_EQ(retry_after, "7");
  EXPECT_EQ(router.Snapshot()[0].breaker, BreakerState::kClosed);
  EXPECT_EQ(router.Snapshot()[1].breaker, BreakerState::kClosed);
}

TEST_F(RouterTest, PerLineShedObjectsInsideOkResponseRelayUntouched) {
  // Partial shed: the worker answers 200 with a mix of graded lines and
  // per-line code:429 objects. The broker must not reorder, rewrite or
  // retry any of it — per-line dispositions are the worker's contract
  // with the client.
  FakeWorker worker;
  worker.Start("a");
  const std::string mixed_outcome =
      "{\"id\":\"s1\",\"index\":0,\"assignment\":\"assignment1\","
      "\"verdict\":\"correct\"}\n"
      "{\"id\":\"s2\",\"index\":1,\"assignment\":\"assignment1\","
      "\"code\":429,\"retry_after_s\":1,\"error\":\"admission quota\"}\n";
  worker.set_grade_body(mixed_outcome);
  Router router(FastPolicy());
  router.AddWorker(0, worker.port());
  router.ProbeOnce();

  obs::HttpResponse response = router.RouteGrade("two lines");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, mixed_outcome);
  EXPECT_EQ(worker.grade_calls(), 1);
}

TEST_F(RouterTest, FleetMetricsArePublished) {
  obs::Registry::Global().set_enabled(true);
  FakeWorker worker;
  worker.Start("a");
  Router router(FastPolicy());
  router.AddWorker(0, worker.port());
  router.ProbeOnce();
  router.RouteGrade("x");

  auto& registry = obs::Registry::Global();
  EXPECT_EQ(registry.GetGauge("jfeed_fleet_workers", "")->Value(), 1);
  EXPECT_EQ(registry
                .GetGauge("jfeed_fleet_worker_state", "",
                          {{"worker", "0"}})
                ->Value(),
            2);
  EXPECT_EQ(registry
                .GetCounter("jfeed_fleet_requests_total", "",
                            {{"result", "ok"}})
                ->Value(),
            1);
}

}  // namespace
}  // namespace jfeed::fleet
