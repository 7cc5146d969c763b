// Multi-tenant jfeedd integration tests: per-line assignment routing on
// POST /grade, per-line 404/429 error objects, the all-shed -> HTTP 429 +
// Retry-After escalation, per-assignment /statusz and /events views, and
// the assignment-labeled metric families (DESIGN.md §5f/§6).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kb/assignments.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/daemon.h"
#include "support/json.h"
#include "tests/testutil/http_client.h"

namespace jfeed {
namespace {

using jfeed::testutil::HttpFetch;

constexpr const char* kTenantA = "assignment1";
constexpr const char* kTenantB = "mitx-polynomials";

std::string RoutedLine(const std::string& assignment, const std::string& id,
                       const std::string& source) {
  std::string line = "{\"id\":\"" + id + "\",\"assignment\":\"" +
                     assignment + "\",\"source\":";
  AppendJsonString(source, &line);
  return line + "}\n";
}

std::vector<std::string> SplitLines(const std::string& body) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) break;
    lines.push_back(body.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

const kb::Assignment& Tenant(const char* id) {
  return kb::KnowledgeBase::Get().assignment(id);
}

class MultiTenantDaemonTest : public ::testing::Test {
 protected:
  void StartDaemon(service::DaemonOptions options) {
    // The registry is process-global; zero it so the exact-value metric
    // assertions below don't depend on which suites ran earlier.
    obs::Registry::Global().ResetForTest();
    obs::EventLog::Global().Clear();
    daemon_ = std::make_unique<service::GradingDaemon>(std::move(options));
    ASSERT_TRUE(daemon_->Start().ok());
    ASSERT_NE(daemon_->port(), 0);
  }

  void TearDown() override {
    if (daemon_ != nullptr) daemon_->Stop();
    daemon_.reset();
    obs::EventLog::Global().set_enabled(false);
    obs::EventLog::Global().Clear();
    obs::Registry::Global().set_enabled(false);
  }

  std::unique_ptr<service::GradingDaemon> daemon_;
};

TEST_F(MultiTenantDaemonTest, RoutesByAssignmentWithPerLine404) {
  service::DaemonOptions options;
  options.assignments = {kTenantA, kTenantB};
  options.jobs = 2;
  StartDaemon(std::move(options));

  std::string body =
      RoutedLine(kTenantA, "a-1", Tenant(kTenantA).Reference()) +
      RoutedLine(kTenantB, "b-1", Tenant(kTenantB).Reference()) +
      RoutedLine("no-such", "x-1", Tenant(kTenantA).Reference()) +
      "{\"id\":\"u-1\",\"source\":\"class C {}\"}\n";
  auto graded = HttpFetch(daemon_->port(), "POST", "/grade", body);
  ASSERT_TRUE(graded.ok);
  EXPECT_EQ(graded.status, 200);  // Mixed outcomes stay per-line.

  auto lines = SplitLines(graded.body);
  ASSERT_EQ(lines.size(), 4u) << graded.body;
  // Routed lines grade under their own assignment and say so.
  EXPECT_NE(lines[0].find("\"assignment\":\"assignment1\""),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"verdict\":\"correct\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"assignment\":\"mitx-polynomials\""),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"verdict\":\"correct\""), std::string::npos);
  // Unknown assignment: per-line 404 object, the rest of the batch intact.
  EXPECT_NE(lines[2].find("\"code\":404"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"assignment\":\"no-such\""), std::string::npos);
  // No assignment key and no unambiguous default: per-line error.
  EXPECT_NE(lines[3].find("\"error\""), std::string::npos) << lines[3];
  EXPECT_NE(lines[3].find("assignment"), std::string::npos) << lines[3];

  // The flight recorder stamped each event with its line's assignment.
  auto a_events =
      HttpFetch(daemon_->port(), "GET", "/events?assignment=assignment1");
  ASSERT_TRUE(a_events.ok);
  auto a_lines = SplitLines(a_events.body);
  ASSERT_EQ(a_lines.size(), 1u) << a_events.body;
  obs::WideEvent event;
  ASSERT_TRUE(obs::FromJson(a_lines[0], &event));
  EXPECT_EQ(event.assignment, "assignment1");
  EXPECT_EQ(event.submission_id, "a-1");

  auto b_events = HttpFetch(daemon_->port(), "GET",
                            "/events?assignment=mitx-polynomials");
  ASSERT_TRUE(b_events.ok);
  EXPECT_EQ(SplitLines(b_events.body).size(), 1u);

  // /statusz: multi-tenant identity plus the per-shard breakdown.
  auto statusz = HttpFetch(daemon_->port(), "GET", "/statusz");
  ASSERT_TRUE(statusz.ok);
  EXPECT_NE(statusz.body.find("\"assignment\":\"*\""), std::string::npos);
  EXPECT_NE(statusz.body.find(
                "\"assignments\":[\"assignment1\",\"mitx-polynomials\"]"),
            std::string::npos)
      << statusz.body.substr(0, 512);
  EXPECT_NE(statusz.body.find("\"shards\":["), std::string::npos);
  EXPECT_NE(statusz.body.find("\"assignment\":\"assignment1\",\"depth\":"),
            std::string::npos);

  // /metrics: the assignment label on the scheduler families, with the
  // unlabeled aggregate still present (§6 contract change).
  auto metrics = HttpFetch(daemon_->port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find(
                "jfeed_sched_jobs_total{assignment=\"assignment1\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("jfeed_sched_jobs_total 2"), std::string::npos)
      << "unlabeled aggregate lost";
  EXPECT_NE(metrics.body.find(
                "jfeed_grade_duration_us_count{assignment=\"assignment1\"}"),
            std::string::npos);
}

TEST_F(MultiTenantDaemonTest, ShedIsPerLineAnd429OnlyWhenTotal) {
  // Tiny quota, one worker: pin the worker + quota with a slow submission,
  // then spike the same assignment. A mixed batch stays 200 with a per-line
  // 429 object; a single-line request that sheds escalates to HTTP 429
  // with a Retry-After header.
  service::DaemonOptions options;
  options.assignments = {kTenantA, kTenantB};
  options.jobs = 1;
  options.shard_queue_capacity = 1;
  options.use_result_cache = false;
  // The pin below must hold its worker for real wall-clock time. A bare
  // `while (true)` burns the suite's 300k-step budget in milliseconds, so
  // the pin concatenates strings — each iteration copies the whole string,
  // so wall time outruns the step count. Lift the heap guard (it meters
  // cumulative allocation at GB/s) so the 1.5s exec deadline is the limit
  // that actually ends the pin.
  options.pipeline.exec.deadline_ms = 1500;
  options.pipeline.exec.max_heap_bytes = int64_t{1} << 40;
  options.pipeline.budgets.functional_ms = 1500;
  StartDaemon(std::move(options));

  const std::string slow =
      "void assignment1(int[] a) { String s = \"\"; while (true) { s = s + "
      "\"0123456789012345678901234567890123456789012345678901234567890123456"
      "789012345678901234567890123456789\"; } }";
  testutil::HttpResult slow_result;
  std::thread pin([this, &slow, &slow_result] {
    slow_result = HttpFetch(daemon_->port(), "POST", "/grade",
                            RoutedLine(kTenantA, "pin", slow));
  });
  // Wait until the daemon has admitted the slow submission (shard depth 1).
  for (int i = 0; i < 200; ++i) {
    auto statusz = HttpFetch(daemon_->port(), "GET", "/statusz");
    if (statusz.ok &&
        statusz.body.find("\"assignment\":\"assignment1\",\"depth\":1") !=
            std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Single-line all-shed first: every line sheds, so the response never
  // waits on the (pinned) worker — it comes back as pure backpressure.
  auto shed = HttpFetch(daemon_->port(), "POST", "/grade",
                        RoutedLine(kTenantA, "spike-2",
                                   Tenant(kTenantA).Reference()));
  ASSERT_TRUE(shed.ok);
  EXPECT_EQ(shed.status, 429) << shed.body;
  EXPECT_NE(shed.headers.find("Retry-After:"), std::string::npos)
      << shed.headers;
  EXPECT_NE(shed.body.find("\"code\":429"), std::string::npos);

  // Mixed batch: tenant A sheds per-line, tenant B still grades -> 200.
  // Admission happens up front (tenant A still at quota), then the response
  // waits for calm-1 to grade behind the pin on the shared worker.
  std::string mixed =
      RoutedLine(kTenantA, "spike-1", Tenant(kTenantA).Reference()) +
      RoutedLine(kTenantB, "calm-1", Tenant(kTenantB).Reference());
  auto partial = HttpFetch(daemon_->port(), "POST", "/grade", mixed);
  ASSERT_TRUE(partial.ok);
  EXPECT_EQ(partial.status, 200) << partial.body;
  auto lines = SplitLines(partial.body);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"code\":429"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"retry_after_s\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"verdict\":\"correct\""), std::string::npos)
      << lines[1];

  pin.join();
  ASSERT_TRUE(slow_result.ok);
  EXPECT_EQ(slow_result.status, 200);

  // The sheds landed on the spiking tenant's counter only.
  auto metrics = HttpFetch(daemon_->port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("jfeed_shed_total{assignment=\"assignment1\"} 2"),
            std::string::npos)
      << metrics.body.substr(0, 1024);
  EXPECT_EQ(metrics.body.find("jfeed_shed_total{assignment=\"mitx-polynomials\"} 1"),
            std::string::npos);
}

TEST_F(MultiTenantDaemonTest, SingleTenantModeKeepsUnroutedLinesWorking) {
  // Back-compat: a daemon started the old way (one assignment id) accepts
  // lines without an assignment key and stamps outcomes with its tenant.
  service::DaemonOptions options;
  options.assignment_id = kTenantA;
  options.jobs = 2;
  StartDaemon(std::move(options));

  std::string body = "{\"id\":\"legacy-1\",\"source\":";
  AppendJsonString(Tenant(kTenantA).Reference(), &body);
  body += "}\n";
  auto graded = HttpFetch(daemon_->port(), "POST", "/grade", body);
  ASSERT_TRUE(graded.ok);
  EXPECT_EQ(graded.status, 200);
  auto lines = SplitLines(graded.body);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"assignment\":\"assignment1\""),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"verdict\":\"correct\""), std::string::npos);

  auto statusz = HttpFetch(daemon_->port(), "GET", "/statusz");
  ASSERT_TRUE(statusz.ok);
  EXPECT_NE(statusz.body.find("\"assignment\":\"assignment1\""),
            std::string::npos);
}

TEST_F(MultiTenantDaemonTest, StartRejectsUnknownAndDuplicateAssignments) {
  {
    service::DaemonOptions options;
    options.assignments = {kTenantA, "no-such"};
    service::GradingDaemon daemon(std::move(options));
    Status status = daemon.Start();
    EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
  }
  {
    service::DaemonOptions options;
    options.assignments = {kTenantA, kTenantA};
    service::GradingDaemon daemon(std::move(options));
    Status status = daemon.Start();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
  obs::Registry::Global().set_enabled(false);
  obs::EventLog::Global().set_enabled(false);
}

TEST_F(MultiTenantDaemonTest, DefaultLoadsEveryAssignment) {
  // Neither assignment_id nor assignments: the daemon serves the full
  // knowledge base — the one-process MOOC deployment.
  service::DaemonOptions options;
  options.jobs = 2;
  StartDaemon(std::move(options));

  auto statusz = HttpFetch(daemon_->port(), "GET", "/statusz");
  ASSERT_TRUE(statusz.ok);
  for (const auto& id : kb::KnowledgeBase::Get().assignment_ids()) {
    EXPECT_NE(statusz.body.find("\"" + id + "\""), std::string::npos) << id;
  }

  // Any tenant routes.
  auto graded = HttpFetch(
      daemon_->port(), "POST", "/grade",
      RoutedLine("rit-all-g-medals", "any-1",
                 Tenant("rit-all-g-medals").Reference()));
  ASSERT_TRUE(graded.ok);
  EXPECT_EQ(graded.status, 200);
  EXPECT_NE(graded.body.find("\"verdict\":\"correct\""), std::string::npos)
      << graded.body;
}

}  // namespace
}  // namespace jfeed
