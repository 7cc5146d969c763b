// Fleet-level chaos: the jfeed-broker routing machinery (fleet::Router)
// over real in-process GradingDaemon workers, with deterministic fault
// injection at the fleet points (support/fault.h). The acceptance story:
// a worker "dies" mid-submission (injected kUnavailable on the dispatch
// path), the router retries onto a surviving worker, every accepted
// submission gets exactly one final response, and the per-worker circuit
// breaker trips and recovers through a half-open health probe — all of it
// observable in the jfeed_fleet_* metrics.
//
// Real process supervision (fork/exec jfeedd, kill -9, restart storms) is
// exercised by tests/fleet/supervisor_test.cc and the CI fleet-smoke job;
// here the workers are in-process so the chaos is exactly reproducible.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/router.h"
#include "kb/assignments.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "support/fault.h"
#include "support/json.h"

namespace jfeed {
namespace {

int64_t CounterValue(const std::string& name, const obs::Labels& labels) {
  return obs::Registry::Global().GetCounter(name, "", labels)->Value();
}

int64_t GaugeValue(const std::string& name, const obs::Labels& labels) {
  return obs::Registry::Global().GetGauge(name, "", labels)->Value();
}

class FleetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EventLog::Global().Clear();
    obs::Registry::Global().ResetForTest();
  }

  void TearDown() override {
    fault::Injector::Get().Disable();
    workers_.clear();
    obs::EventLog::Global().set_enabled(false);
    obs::EventLog::Global().Clear();
    obs::Registry::Global().set_enabled(false);
    obs::Registry::Global().ResetForTest();
  }

  /// Starts `count` real grading daemons on ephemeral ports.
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

  fleet::RouterPolicy ChaosPolicy() {
    fleet::RouterPolicy policy;
    policy.request_deadline_ms = 10'000;
    policy.max_attempts = 4;
    policy.retry_backoff = {1, 4, 0.0};
    // High threshold: the retry story is tested without breaker
    // interference; the trip/recover story sets its own policy.
    policy.breaker.failure_threshold = 1000;
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

TEST_F(FleetChaosTest, WorkerCrashMidSubmissionIsHiddenByRetry) {
  StartWorkers(2);
  fleet::Router router(ChaosPolicy());
  router.AddWorker(0, workers_[0]->port());
  router.AddWorker(1, workers_[1]->port());
  router.ProbeOnce();
  ASSERT_EQ(router.RoutableCount(), 2u);

  // Half of all dispatches "crash the worker" (deterministic per hit
  // ordinal). Requests run serially, so the decision sequence — and
  // therefore every per-request outcome — is exactly reproducible.
  fault::FaultConfig config;
  config.seed = 7;
  config.probability = 0.5;
  config.only_point = fault::points::kFleetWorkerGrade;
  config.code = StatusCode::kUnavailable;
  fault::ScopedFaultInjection chaos(config);

  constexpr int kRequests = 24;
  int ok = 0, failed = 0, retried_and_survived = 0;
  for (int i = 0; i < kRequests; ++i) {
    int64_t hits_before =
        fault::Injector::Get().Hits(fault::points::kFleetWorkerGrade);
    obs::HttpResponse response =
        router.RouteGrade(GradeBody("chaos-" + std::to_string(i)));
    int64_t attempts =
        fault::Injector::Get().Hits(fault::points::kFleetWorkerGrade) -
        hits_before;

    // Exactly one final response per submission, and nothing in between:
    // a clean grade (every attempt bounded by max_attempts) or a clean
    // 502 after exhausting retries.
    ASSERT_GE(attempts, 1);
    ASSERT_LE(attempts, 4);
    if (response.status == 200) {
      ++ok;
      EXPECT_NE(response.body.find("\"id\":\"chaos-" + std::to_string(i)),
                std::string::npos);
      EXPECT_NE(response.body.find("\"verdict\":\"correct\""),
                std::string::npos)
          << response.body;
      if (attempts > 1) ++retried_and_survived;
    } else {
      EXPECT_EQ(response.status, 502) << response.body;
      ++failed;
    }
  }

  // The chaos is real (some dispatches crashed) yet absorbed: with p=0.5
  // and 4 attempts the vast majority of submissions still grade.
  EXPECT_EQ(ok + failed, kRequests);
  EXPECT_GE(ok, kRequests * 2 / 3) << "ok=" << ok << " failed=" << failed;
  EXPECT_GE(retried_and_survived, 1)
      << "no submission survived a mid-flight worker crash via retry";

  // The same story on the wire: jfeed_fleet_* accounts for every request.
  EXPECT_EQ(CounterValue("jfeed_fleet_requests_total", {{"result", "ok"}}),
            ok);
  EXPECT_EQ(CounterValue("jfeed_fleet_requests_total", {{"result", "error"}}),
            failed);
  EXPECT_EQ(CounterValue("jfeed_fleet_requests_total", {{"result", "shed"}}),
            0);
  EXPECT_GE(CounterValue("jfeed_fleet_retries_total", {}), 1);
}

TEST_F(FleetChaosTest, BreakerTripsOnCrashesAndRecoversViaHalfOpenProbe) {
  StartWorkers(1);
  fleet::RouterPolicy policy = ChaosPolicy();
  policy.max_attempts = 1;
  policy.breaker.failure_threshold = 2;
  policy.breaker.open_cooldown_ms = 60;
  fleet::Router router(policy);
  router.AddWorker(0, workers_[0]->port());
  router.ProbeOnce();
  ASSERT_EQ(router.RoutableCount(), 1u);

  {
    // Every dispatch crashes: two requests reach the threshold and trip.
    fault::FaultConfig config;
    config.probability = 1.0;
    config.only_point = fault::points::kFleetWorkerGrade;
    config.code = StatusCode::kUnavailable;
    fault::ScopedFaultInjection chaos(config);

    EXPECT_EQ(router.RouteGrade(GradeBody("t-0")).status, 502);
    EXPECT_EQ(router.RouteGrade(GradeBody("t-1")).status, 502);
  }

  EXPECT_EQ(GaugeValue("jfeed_fleet_breaker_state", {{"worker", "0"}}), 2)
      << "breaker should be open";
  EXPECT_EQ(
      CounterValue("jfeed_fleet_breaker_trips_total", {{"worker", "0"}}), 1);

  // Open breaker: the fleet sheds instead of hammering the worker.
  obs::HttpResponse shed = router.RouteGrade(GradeBody("t-2"));
  EXPECT_EQ(shed.status, 503);
  ASSERT_EQ(shed.headers.size(), 1u);
  EXPECT_EQ(shed.headers[0].first, "Retry-After");
  EXPECT_GE(CounterValue("jfeed_fleet_shed_total", {}), 1);

  // Cooldown elapses; the injection is gone (worker "recovered"). The
  // next probe takes the half-open trial and re-admits the worker — no
  // student submission was spent on the recovery gamble.
  std::this_thread::sleep_for(std::chrono::milliseconds(90));
  router.ProbeOnce();
  EXPECT_EQ(GaugeValue("jfeed_fleet_breaker_state", {{"worker", "0"}}), 0)
      << "breaker should have closed via the half-open probe";
  EXPECT_EQ(GaugeValue("jfeed_fleet_worker_state", {{"worker", "0"}}), 2);
  EXPECT_EQ(router.RouteGrade(GradeBody("t-3")).status, 200);
}

TEST_F(FleetChaosTest, BlackholedProbesTakeIdleWorkerOutOfRotation) {
  StartWorkers(2);
  fleet::RouterPolicy policy = ChaosPolicy();
  policy.breaker.failure_threshold = 2;
  policy.down_after_probe_failures = 2;
  fleet::Router router(policy);
  router.AddWorker(0, workers_[0]->port());
  router.AddWorker(1, workers_[1]->port());
  router.ProbeOnce();
  ASSERT_EQ(router.RoutableCount(), 2u);

  {
    // All probes blackholed: with zero grade traffic, probe failures alone
    // must mark workers down and trip breakers.
    fault::FaultConfig config;
    config.probability = 1.0;
    config.only_point = fault::points::kFleetProbe;
    config.code = StatusCode::kTimeout;
    fault::ScopedFaultInjection chaos(config);
    router.ProbeOnce();
    router.ProbeOnce();
  }
  EXPECT_EQ(router.RoutableCount(), 0u);
  EXPECT_EQ(GaugeValue("jfeed_fleet_worker_state", {{"worker", "0"}}), 0);
  EXPECT_GE(
      CounterValue("jfeed_fleet_probe_failures_total", {{"worker", "0"}}), 2);

  // Probes heal; after the cooldown the fleet claws its way back without
  // any restart.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      policy.breaker.open_cooldown_ms + 50));
  router.ProbeOnce();
  EXPECT_EQ(router.RoutableCount(), 2u);
  EXPECT_EQ(router.RouteGrade(GradeBody("healed")).status, 200);
}

TEST_F(FleetChaosTest, SlowResponsesAreRetriedLikeCrashes) {
  StartWorkers(2);
  fleet::Router router(ChaosPolicy());
  router.AddWorker(0, workers_[0]->port());
  router.AddWorker(1, workers_[1]->port());
  router.ProbeOnce();

  // A response that blows the deadline is indistinguishable from a crash
  // to the student: it must be retried the same way, with the kTimeout
  // code shaping the symptom.
  fault::FaultConfig config;
  config.seed = 11;
  config.probability = 0.5;
  config.only_point = fault::points::kFleetSlowResponse;
  config.code = StatusCode::kTimeout;
  fault::ScopedFaultInjection chaos(config);

  int ok = 0;
  for (int i = 0; i < 12; ++i) {
    obs::HttpResponse response =
        router.RouteGrade(GradeBody("slow-" + std::to_string(i)));
    if (response.status == 200) ++ok;
  }
  EXPECT_GE(ok, 8);
  EXPECT_GE(fault::Injector::Get().Hits(fault::points::kFleetSlowResponse),
            12);
}

}  // namespace
}  // namespace jfeed
