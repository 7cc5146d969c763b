// In-process integration tests for the jfeedd grading daemon: the full
// serving surface (POST /grade + the five introspection endpoints) on an
// ephemeral loopback port, including the drain lifecycle the acceptance
// criteria in DESIGN.md §6b describe.

#include <gtest/gtest.h>

#include <atomic>
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

std::string GradeLine(const std::string& id, const std::string& source) {
  std::string line = "{\"id\":\"" + id + "\",\"source\":";
  AppendJsonString(source, &line);
  return line + "}\n";
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EventLog::Global().Clear();
    service::DaemonOptions options;
    options.assignment_id = "assignment1";
    options.jobs = 2;
    daemon_ = std::make_unique<service::GradingDaemon>(options);
    ASSERT_TRUE(daemon_->Start().ok());
    ASSERT_NE(daemon_->port(), 0);
  }

  void TearDown() override {
    daemon_->Stop();
    daemon_.reset();
    // The daemon enables the global observability sinks; put them back so
    // the other suites in this binary start from the quiet default.
    obs::EventLog::Global().set_enabled(false);
    obs::EventLog::Global().Clear();
    obs::Registry::Global().set_enabled(false);
  }

  const kb::Assignment& assignment() const {
    return kb::KnowledgeBase::Get().assignment("assignment1");
  }

  std::unique_ptr<service::GradingDaemon> daemon_;
};

TEST_F(DaemonTest, GradesCorrectAndIncorrectSubmissionsEndToEnd) {
  // One correct submission (the reference) and one seeded single-error
  // variant, in one NDJSON POST body.
  std::string body = GradeLine("ok-1", assignment().Reference()) +
                     GradeLine("bad-1", assignment().generator.Generate(1));
  auto graded = HttpFetch(daemon_->port(), "POST", "/grade", body);
  ASSERT_TRUE(graded.ok);
  EXPECT_EQ(graded.status, 200);

  // Two NDJSON outcome lines, in input order, joinable by id.
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < graded.body.size()) {
    size_t eol = graded.body.find('\n', pos);
    if (eol == std::string::npos) break;
    lines.push_back(graded.body.substr(pos, eol - pos));
    pos = eol + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\":\"ok-1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"verdict\":\"correct\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"id\":\"bad-1\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"verdict\":\"correct\""), std::string::npos)
      << lines[1];

  // The grading moved the contract metrics.
  auto metrics = HttpFetch(daemon_->port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("jfeed_sched_jobs_total 2"), std::string::npos)
      << metrics.body.substr(0, 512);
  EXPECT_NE(metrics.body.find("jfeed_outcomes_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("jfeed_verdicts_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("jfeed_events_dropped_total"),
            std::string::npos);

  // The flight recorder holds one wide event per submission, with the
  // verdict, the degradation rung and per-stage timings.
  auto events = HttpFetch(daemon_->port(), "GET", "/events");
  ASSERT_TRUE(events.ok);
  std::vector<obs::WideEvent> recorded;
  pos = 0;
  while (pos < events.body.size()) {
    size_t eol = events.body.find('\n', pos);
    if (eol == std::string::npos) break;
    obs::WideEvent event;
    ASSERT_TRUE(obs::FromJson(events.body.substr(pos, eol - pos), &event));
    recorded.push_back(event);
    pos = eol + 1;
  }
  ASSERT_EQ(recorded.size(), 2u);
  for (const auto& event : recorded) {
    EXPECT_EQ(event.assignment, "assignment1");
    EXPECT_FALSE(event.verdict.empty());
    EXPECT_FALSE(event.tier.empty());
    EXPECT_EQ(event.cache, "miss");  // First sight of both submissions.
    // Stage timings were measured, not defaulted: a graded submission
    // always paid for parse + match at least.
    EXPECT_GT(event.parse_ms + event.epdg_ms + event.match_ms +
                  event.functional_ms,
              0.0);
  }
  bool saw_correct = false;
  bool saw_incorrect = false;
  for (const auto& event : recorded) {
    if (event.submission_id == "ok-1") {
      saw_correct = event.verdict == "correct";
    }
    if (event.submission_id == "bad-1") {
      saw_incorrect = event.verdict != "correct";
    }
  }
  EXPECT_TRUE(saw_correct);
  EXPECT_TRUE(saw_incorrect);
}

TEST_F(DaemonTest, StatuszReportsBuildAndSchedulerState) {
  auto result = HttpFetch(daemon_->port(), "GET", "/statusz");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"version\":\""), std::string::npos);
  EXPECT_NE(result.body.find("\"assignment\":\"assignment1\""),
            std::string::npos);
  EXPECT_NE(result.body.find("\"utilization\":"), std::string::npos);
  EXPECT_NE(result.body.find("\"cache\":{\"enabled\":true"),
            std::string::npos);
  EXPECT_NE(result.body.find("\"draining\":false"), std::string::npos);
}

TEST_F(DaemonTest, TracezServesSpansAfterGrading) {
  std::string body = GradeLine("t-1", assignment().Reference());
  ASSERT_TRUE(HttpFetch(daemon_->port(), "POST", "/grade", body).ok);
  // No ?limit= here: the scheduler job span starts before the dozens of
  // inner pipeline spans, so a newest-N cut could drop it.
  auto result = HttpFetch(daemon_->port(), "GET", "/tracez");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"open_spans\":"), std::string::npos);
  EXPECT_NE(result.body.find("\"name\":\"sched.job\""), std::string::npos)
      << result.body.substr(0, 512);

  // A limited scrape returns at most that many spans.
  auto limited = HttpFetch(daemon_->port(), "GET", "/tracez?limit=1");
  ASSERT_TRUE(limited.ok);
  size_t names = 0;
  for (size_t pos = 0;
       (pos = limited.body.find("\"name\":", pos)) != std::string::npos;
       ++pos) {
    ++names;
  }
  EXPECT_LE(names, 1u);
}

TEST_F(DaemonTest, TraceparentHeaderThreadsThroughOutcomeAndEvents) {
  // A client-minted W3C traceparent must be adopted, not re-minted: the
  // outcome line and the wide event both join on the caller's trace id,
  // and /events?trace_id= narrows the flight recorder to that one trace.
  const std::string trace = "4bf92f3577b34da6a3ce929d0e0e4736";
  const std::string header = "00-" + trace + "-00f067aa0ba902b7-01";
  auto traced = HttpFetch(daemon_->port(), "POST", "/grade",
                          GradeLine("traced-1", assignment().Reference()),
                          {{"traceparent", header}});
  ASSERT_TRUE(traced.ok);
  EXPECT_EQ(traced.status, 200);
  EXPECT_NE(traced.body.find("\"trace_id\":\"" + trace + "\""),
            std::string::npos)
      << traced.body;

  // A second submission without a header gets its own (minted) trace.
  auto untraced = HttpFetch(daemon_->port(), "POST", "/grade",
                            GradeLine("untraced-1", assignment().Reference()));
  ASSERT_TRUE(untraced.ok);
  EXPECT_EQ(untraced.body.find(trace), std::string::npos) << untraced.body;

  // The trace filter returns exactly the traced submission's event.
  auto events =
      HttpFetch(daemon_->port(), "GET", "/events?trace_id=" + trace);
  ASSERT_TRUE(events.ok);
  EXPECT_EQ(events.status, 200);
  obs::WideEvent event;
  ASSERT_TRUE(obs::FromJson(events.body, &event)) << events.body;
  EXPECT_EQ(event.submission_id, "traced-1");
  EXPECT_EQ(event.trace_id, trace);
  EXPECT_FALSE(event.span_id.empty());
  EXPECT_EQ(events.body.find("untraced-1"), std::string::npos);

  // A malformed traceparent is never an excuse to reject the grade: the
  // daemon mints a fresh root and counts the rejection.
  auto recovered = HttpFetch(daemon_->port(), "POST", "/grade",
                             GradeLine("garbled-1", assignment().Reference()),
                             {{"traceparent", "00-garbage"}});
  ASSERT_TRUE(recovered.ok);
  EXPECT_EQ(recovered.status, 200);
  EXPECT_NE(recovered.body.find("\"verdict\":\"correct\""), std::string::npos);
  auto metrics = HttpFetch(daemon_->port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("jfeed_trace_context_invalid_total 1"),
            std::string::npos)
      << metrics.body.substr(0, 512);
}

TEST_F(DaemonTest, TracezChromeFormatExportsPerfettoDocument) {
  ASSERT_TRUE(HttpFetch(daemon_->port(), "POST", "/grade",
                        GradeLine("chrome-1", assignment().Reference()))
                  .ok);
  auto result =
      HttpFetch(daemon_->port(), "GET", "/tracez?format=chrome&pid=3");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(result.body.find("\"process_name\""), std::string::npos);
  EXPECT_NE(result.body.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(result.body.find("\"sched.job\""), std::string::npos)
      << result.body.substr(0, 512);
}

TEST_F(DaemonTest, SlozReportsPerAssignmentBudgets) {
  ASSERT_TRUE(HttpFetch(daemon_->port(), "POST", "/grade",
                        GradeLine("slo-1", assignment().Reference()))
                  .ok);
  auto result = HttpFetch(daemon_->port(), "GET", "/sloz");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"policy\":"), std::string::npos);
  EXPECT_NE(result.body.find("\"assignment\":\"assignment1\""),
            std::string::npos)
      << result.body;
  // One fast grade against the generous default policy: the budget is
  // untouched and nothing burns.
  EXPECT_NE(result.body.find("\"budget_remaining_ppm\":1000000"),
            std::string::npos)
      << result.body;
  EXPECT_NE(result.body.find("\"fast_burn\":false"), std::string::npos);
  // The grade's latency histogram exemplar links budget to a trace id.
  EXPECT_NE(result.body.find("\"exemplars\":["), std::string::npos);
  EXPECT_NE(result.body.find("\"trace_id\":\""), std::string::npos);
}

TEST_F(DaemonTest, FastBudgetBurnDegradesHealthzBeforeShedding) {
  // A deliberately impossible SLO: every grade is an SLO-bad event
  // (latency objective 0 ms) and one event arms the alert. Health must
  // degrade on burn while /grade still answers — the load balancer steers
  // away *before* the admission quota starts shedding student work.
  service::DaemonOptions options;
  options.assignment_id = "assignment1";
  options.jobs = 2;
  options.slo.latency_threshold_us = 0;
  options.slo.min_events = 1;
  service::GradingDaemon strict(options);
  ASSERT_TRUE(strict.Start().ok());

  auto graded = HttpFetch(strict.port(), "POST", "/grade",
                          GradeLine("burn-1", assignment().Reference()));
  ASSERT_TRUE(graded.ok);
  EXPECT_EQ(graded.status, 200) << "burning budget must not refuse grades";

  auto health = HttpFetch(strict.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\":\"slo_fast_burn\""),
            std::string::npos)
      << health.body;

  // The same policy with the health hook disabled stays green.
  strict.Stop();
  options.slo_health = false;
  service::GradingDaemon tolerant(options);
  ASSERT_TRUE(tolerant.Start().ok());
  ASSERT_TRUE(HttpFetch(tolerant.port(), "POST", "/grade",
                        GradeLine("burn-2", assignment().Reference()))
                  .ok);
  auto tolerated = HttpFetch(tolerant.port(), "GET", "/healthz");
  ASSERT_TRUE(tolerated.ok);
  EXPECT_EQ(tolerated.status, 200) << tolerated.body;
  tolerant.Stop();
}

TEST_F(DaemonTest, HealthzFlipsUnreadyDuringDrainAndGradeIsRefused) {
  auto healthy = HttpFetch(daemon_->port(), "GET", "/healthz");
  ASSERT_TRUE(healthy.ok);
  EXPECT_EQ(healthy.status, 200);
  EXPECT_NE(healthy.body.find("\"status\":\"ok\""), std::string::npos);

  daemon_->BeginDrain();

  auto draining = HttpFetch(daemon_->port(), "GET", "/healthz");
  ASSERT_TRUE(draining.ok);
  EXPECT_EQ(draining.status, 503);
  EXPECT_NE(draining.body.find("\"status\":\"draining\""),
            std::string::npos);

  // New grade work is refused while draining...
  auto refused = HttpFetch(daemon_->port(), "POST", "/grade",
                           GradeLine("late", assignment().Reference()));
  ASSERT_TRUE(refused.ok);
  EXPECT_EQ(refused.status, 503);

  // ...but the introspection surface keeps answering, so the drain itself
  // is observable.
  auto metrics = HttpFetch(daemon_->port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
}

TEST_F(DaemonTest, MalformedNdjsonLineYieldsPerLineErrorNotBatchFailure) {
  // Regression pin for the grade --batch parity contract: one bad line in
  // a POST /grade body must produce an error object AT ITS POSITION while
  // every other line still grades — never a whole-batch 4xx, never a
  // dropped or reordered line.
  std::string body = GradeLine("ok-1", assignment().Reference());
  body += "this is not json\n";
  body += "{\"id\":\"no-source\"}\n";
  body += GradeLine("ok-2", assignment().Reference());

  auto graded = HttpFetch(daemon_->port(), "POST", "/grade", body);
  ASSERT_TRUE(graded.ok);
  EXPECT_EQ(graded.status, 200);

  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < graded.body.size()) {
    size_t eol = graded.body.find('\n', pos);
    if (eol == std::string::npos) break;
    lines.push_back(graded.body.substr(pos, eol - pos));
    pos = eol + 1;
  }
  ASSERT_EQ(lines.size(), 4u) << graded.body;

  EXPECT_NE(lines[0].find("\"id\":\"ok-1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"verdict\":\"correct\""), std::string::npos);

  // Line 1: not JSON. An error object carrying the line's index and an
  // InvalidArgument diagnostic, id null because none could be parsed.
  EXPECT_NE(lines[1].find("\"index\":1"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"error\""), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("InvalidArgument"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[1].find("\"verdict\""), std::string::npos) << lines[1];

  // Line 2: valid JSON, missing the source field — same per-line contract.
  EXPECT_NE(lines[2].find("\"index\":2"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"error\""), std::string::npos) << lines[2];

  EXPECT_NE(lines[3].find("\"id\":\"ok-2\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"verdict\":\"correct\""), std::string::npos);
}

TEST_F(DaemonTest, DrainUnderLoadAnswersEveryAcceptedSubmission) {
  // SIGTERM semantics under fire: N concurrent POSTs are in flight when
  // the drain begins. Every request that was accepted must still get a
  // complete NDJSON response (one line per submission) — a drain loses no
  // student work — while /healthz flips to 503 immediately and requests
  // arriving after the flip are refused with 503.
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<testutil::HttpResult> results(kClients);
  std::atomic<int> started{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &results, &started] {
      std::string body;
      for (int i = 0; i < 4; ++i) {
        body += GradeLine("d-" + std::to_string(c) + "-" + std::to_string(i),
                          assignment().generator.Generate(c * 4 + i));
      }
      started.fetch_add(1);
      results[c] = HttpFetch(daemon_->port(), "POST", "/grade", body);
    });
  }
  // Let the clients fire, then drain mid-flight.
  while (started.load() < kClients) std::this_thread::yield();
  daemon_->BeginDrain();

  auto draining = HttpFetch(daemon_->port(), "GET", "/healthz");
  ASSERT_TRUE(draining.ok);
  EXPECT_EQ(draining.status, 503);
  EXPECT_NE(draining.body.find("\"status\":\"draining\""), std::string::npos);

  for (auto& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    // Accepted -> a complete 200 with all four outcome lines; refused (the
    // POST raced past the drain flip) -> a clean 503. Nothing in between:
    // no dropped connections, no truncated bodies.
    ASSERT_TRUE(results[c].ok) << "client " << c;
    if (results[c].status == 200) {
      size_t outcome_lines = 0;
      for (char ch : results[c].body) outcome_lines += ch == '\n';
      EXPECT_EQ(outcome_lines, 4u) << results[c].body;
    } else {
      EXPECT_EQ(results[c].status, 503);
    }
  }

  daemon_->Stop();
  EXPECT_EQ(obs::Tracer::Global().OpenSpanCount(), 0);
}

TEST_F(DaemonTest, ShutdownLeavesNoOpenSpans) {
  std::string body = GradeLine("s-1", assignment().Reference()) +
                     GradeLine("s-2", assignment().generator.Generate(2));
  ASSERT_TRUE(HttpFetch(daemon_->port(), "POST", "/grade", body).ok);
  daemon_->Stop();
  EXPECT_EQ(obs::Tracer::Global().OpenSpanCount(), 0);
}

TEST_F(DaemonTest, MethodGuards) {
  auto get_grade = HttpFetch(daemon_->port(), "GET", "/grade");
  ASSERT_TRUE(get_grade.ok);
  EXPECT_EQ(get_grade.status, 405);
  auto empty_post = HttpFetch(daemon_->port(), "POST", "/grade", "\n\n");
  ASSERT_TRUE(empty_post.ok);
  EXPECT_EQ(empty_post.status, 400);
}

// The TSan target: concurrent scrapes of every introspection endpoint while
// a batch grades. Races between Registry::Render, EventLog::Append,
// Tracer::Snapshot and the grading workers show up here.
TEST_F(DaemonTest, ConcurrentScrapesDuringBatch) {
  std::atomic<bool> done{false};
  std::atomic<int> scrape_failures{0};
  const char* endpoints[] = {"/metrics", "/healthz", "/statusz", "/tracez",
                             "/events"};
  std::vector<std::thread> scrapers;
  for (const char* endpoint : endpoints) {
    scrapers.emplace_back([this, endpoint, &done, &scrape_failures] {
      while (!done.load(std::memory_order_relaxed)) {
        auto result = HttpFetch(daemon_->port(), "GET", endpoint);
        // /healthz may legitimately answer 503 under load; transport
        // failures are the bug.
        if (!result.ok) scrape_failures.fetch_add(1);
      }
    });
  }

  std::string body;
  for (int i = 0; i < 12; ++i) {
    body += GradeLine("c-" + std::to_string(i),
                      assignment().generator.Generate(i));
  }
  auto graded = HttpFetch(daemon_->port(), "POST", "/grade", body);
  done.store(true, std::memory_order_relaxed);
  for (auto& scraper : scrapers) scraper.join();

  ASSERT_TRUE(graded.ok);
  EXPECT_EQ(graded.status, 200);
  EXPECT_EQ(scrape_failures.load(), 0);
}

}  // namespace
}  // namespace jfeed
