// Chaos integration test: sweeps deterministic fault injection over every
// registered injection point x every knowledge-base assignment and asserts
// the grading pipeline always degrades to a valid structured outcome —
// never a crash, never a hang, never an unclassified failure.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kb/assignments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/sharded_scheduler.h"
#include "service/pipeline.h"
#include "support/fault.h"

namespace jfeed::service {
namespace {

std::vector<std::string> AllAssignmentIds() {
  // Touch the knowledge base BEFORE any injection campaign is active: its
  // lazy construction parses pattern templates and must not see faults.
  return kb::KnowledgeBase::Get().assignment_ids();
}

/// The structural invariants every outcome must satisfy, fault or not.
void ExpectValidOutcome(const GradingOutcome& outcome,
                        const std::string& context) {
  SCOPED_TRACE(context);
  // Stage/tier/verdict agree with each other.
  if (outcome.tier == FeedbackTier::kParseDiagnostic) {
    EXPECT_EQ(outcome.verdict, Verdict::kNotGraded);
    EXPECT_FALSE(outcome.diagnostic.empty());
  } else {
    EXPECT_NE(outcome.verdict, Verdict::kNotGraded);
  }
  if (outcome.failure != FailureClass::kNone) {
    EXPECT_TRUE(outcome.degraded());
  }
  // Every stage that ran was timed with a sane wall clock.
  EXPECT_FALSE(outcome.timings.empty());
  for (const auto& timing : outcome.timings) {
    EXPECT_GE(timing.wall_ms, 0.0);
    EXPECT_LT(timing.wall_ms, 60'000.0);
  }
  // JSON rendering must never choke on a degraded outcome.
  std::string json = OutcomeToJson(outcome);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ChaosTest, EveryPointTimesEveryAssignmentDegradesGracefully) {
  for (const auto& id : AllAssignmentIds()) {
    const auto& assignment = kb::KnowledgeBase::Get().assignment(id);
    std::string reference = assignment.Reference();
    for (const auto& point : fault::Injector::AllPoints()) {
      fault::FaultConfig config;
      config.only_point = point;  // Always fire at this point.
      GradingOutcome outcome;
      {
        fault::ScopedFaultInjection injection(config);
        GradingPipeline pipeline(assignment);
        outcome = pipeline.Grade(reference);
      }
      ExpectValidOutcome(outcome, id + " / " + point);
      EXPECT_TRUE(outcome.degraded()) << id << " / " << point;

      // The fault forces the documented rung of the degradation ladder.
      if (point == fault::points::kLexer ||
          point == fault::points::kParser) {
        EXPECT_EQ(outcome.tier, FeedbackTier::kParseDiagnostic)
            << id << " / " << point;
      } else if (point == fault::points::kEpdgBuilder ||
                 point == fault::points::kMatcher) {
        EXPECT_EQ(outcome.tier, FeedbackTier::kAstOnly)
            << id << " / " << point;
        EXPECT_NE(outcome.verdict, Verdict::kNotGraded)
            << id << " / " << point;
      } else if (point == fault::points::kInterpreterCall) {
        // Pattern feedback is unaffected; only the functional stage dies.
        EXPECT_EQ(outcome.tier, FeedbackTier::kFullEpdg)
            << id << " / " << point;
        EXPECT_FALSE(outcome.functional_ran) << id << " / " << point;
        EXPECT_EQ(outcome.failure, FailureClass::kInternalFault)
            << id << " / " << point;
      }
    }
  }
}

TEST(ChaosTest, ProbabilisticSweepNeverCrashes) {
  // Random-but-reproducible faults at every point simultaneously, across
  // several seeds: whatever fails, the outcome stays structured.
  for (const auto& id : AllAssignmentIds()) {
    const auto& assignment = kb::KnowledgeBase::Get().assignment(id);
    std::string reference = assignment.Reference();
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      fault::FaultConfig config;
      config.seed = seed;
      config.probability = 0.3;
      GradingOutcome outcome;
      {
        fault::ScopedFaultInjection injection(config);
        GradingPipeline pipeline(assignment);
        outcome = pipeline.Grade(reference);
      }
      ExpectValidOutcome(outcome,
                         id + " / seed " + std::to_string(seed));
    }
  }
}

TEST(ChaosTest, SameSeedReproducesTheSameOutcome) {
  const auto& assignment =
      kb::KnowledgeBase::Get().assignment("assignment1");
  std::string reference = assignment.Reference();
  auto grade_with_seed = [&](uint64_t seed) {
    fault::FaultConfig config;
    config.seed = seed;
    config.probability = 0.5;
    fault::ScopedFaultInjection injection(config);
    GradingPipeline pipeline(assignment);
    return pipeline.Grade(reference);
  };
  GradingOutcome first = grade_with_seed(42);
  GradingOutcome second = grade_with_seed(42);
  EXPECT_EQ(first.verdict, second.verdict);
  EXPECT_EQ(first.tier, second.tier);
  EXPECT_EQ(first.failure, second.failure);
  EXPECT_EQ(first.diagnostic, second.diagnostic);
}

// Multi-threaded chaos: a seeded always-fire campaign (probability 1.0,
// only_point) decides failure independently of the hit ordinal, so — per the
// ordinal-semantics contract documented in support/fault.h — every
// submission of a parallel batch must land on the same documented
// degradation-ladder rung at any worker count and any schedule. A poisoned
// worker degrades its own submission, never the batch.
TEST(ChaosTest, ParallelBatchUnderSeededCampaignLandsOnDocumentedRung) {
  const auto& assignment =
      kb::KnowledgeBase::Get().assignment("assignment1");
  std::vector<std::string> corpus(16, assignment.Reference());
  for (const auto& point : fault::Injector::AllPoints()) {
    fault::FaultConfig config;
    config.seed = 42;
    config.only_point = point;  // probability stays 1.0: ordinal-free.
    std::vector<service::GradingOutcome> outcomes;
    {
      fault::ScopedFaultInjection injection(config);
      sched::ShardedSchedulerOptions sopts;
      sopts.jobs = 8;
      outcomes = service::GradeBatchParallel(assignment, corpus, {}, sopts);
    }
    ASSERT_EQ(outcomes.size(), corpus.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const auto& outcome = outcomes[i];
      std::string context =
          point + " / parallel member " + std::to_string(i);
      ExpectValidOutcome(outcome, context);
      EXPECT_TRUE(outcome.degraded()) << context;
      if (point == fault::points::kLexer ||
          point == fault::points::kParser) {
        EXPECT_EQ(outcome.tier, FeedbackTier::kParseDiagnostic) << context;
      } else if (point == fault::points::kEpdgBuilder ||
                 point == fault::points::kMatcher) {
        EXPECT_EQ(outcome.tier, FeedbackTier::kAstOnly) << context;
        EXPECT_NE(outcome.verdict, Verdict::kNotGraded) << context;
      } else if (point == fault::points::kInterpreterCall) {
        EXPECT_EQ(outcome.tier, FeedbackTier::kFullEpdg) << context;
        EXPECT_FALSE(outcome.functional_ran) << context;
        EXPECT_EQ(outcome.failure, FailureClass::kInternalFault) << context;
      }
    }
  }
}

// With faults enabled the scheduler bypasses dedup and the result cache, so
// a probabilistic campaign actually exercises every submission — and after
// the campaign ends, no fault-degraded outcome is ever replayed from the
// cache to a healthy duplicate.
TEST(ChaosTest, FaultDegradedOutcomesNeverPoisonTheCache) {
  const auto& assignment =
      kb::KnowledgeBase::Get().assignment("assignment1");
  std::vector<sched::MixedItem> batch(
      4, sched::MixedItem{assignment.id, "", assignment.Reference(), {}});
  sched::ShardedScheduler scheduler({&assignment});
  {
    fault::FaultConfig config;
    config.only_point = fault::points::kEpdgBuilder;
    fault::ScopedFaultInjection injection(config);
    sched::BatchStats stats;
    auto poisoned = scheduler.GradeMixedBatch(batch, &stats);
    EXPECT_EQ(stats.graded, batch.size()) << "dedup not bypassed";
    for (const auto& line : poisoned) {
      ASSERT_TRUE(line.status.ok()) << line.status.ToString();
      EXPECT_EQ(line.outcome.tier, FeedbackTier::kAstOnly);
    }
  }
  // Campaign over: the same submissions grade healthy, not from a cache.
  sched::BatchStats stats;
  auto healthy = scheduler.GradeMixedBatch(batch, &stats);
  EXPECT_EQ(stats.cache_hits, 0u);
  for (const auto& line : healthy) {
    ASSERT_TRUE(line.status.ok()) << line.status.ToString();
    EXPECT_EQ(line.outcome.verdict, Verdict::kCorrect);
    EXPECT_FALSE(line.outcome.degraded());
  }
}

/// Every non-comment line of a Prometheus text dump is `name{labels} value`
/// or `name value`; anything else means Render() emitted garbage.
void ExpectRendersAsPrometheusText(const std::string& text) {
  ASSERT_FALSE(text.empty());
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "dump must end with a newline";
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    // The value after the last space must be a (possibly negative) integer.
    std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    size_t digits = value[0] == '-' ? 1 : 0;
    ASSERT_LT(digits, value.size()) << line;
    for (size_t i = digits; i < value.size(); ++i) {
      ASSERT_TRUE(value[i] >= '0' && value[i] <= '9') << line;
    }
    // The metric name starts with a letter or underscore.
    char first = line[0];
    ASSERT_TRUE(first == '_' || (first >= 'a' && first <= 'z') ||
                (first >= 'A' && first <= 'Z'))
        << line;
    // Braces, if present, are balanced and close before the value.
    size_t open = line.find('{');
    if (open != std::string::npos) {
      size_t close = line.rfind('}');
      ASSERT_NE(close, std::string::npos) << line;
      ASSERT_LT(close, space) << line;
      ASSERT_LT(open, close) << line;
    }
  }
}

// Observability coherence under faults: a campaign that forces rung drops
// must move the matching degraded-rung counters, must not leak an open
// span (every fault path unwinds through the spans' destructors), and must
// leave the registry rendering well-formed Prometheus text.
TEST(ChaosTest, MetricsAndTracesStayCoherentAfterFaultCampaign) {
  auto& registry = obs::Registry::Global();
  auto& tracer = obs::Tracer::Global();
  registry.ResetForTest();
  registry.set_enabled(true);
  tracer.Clear();
  tracer.Enable();

  obs::Counter* ast_only = registry.GetCounter(
      "jfeed_outcomes_total", "Graded submissions by feedback tier",
      {{"tier", "ast_only"}});
  obs::Counter* parse_diag = registry.GetCounter(
      "jfeed_outcomes_total", "Graded submissions by feedback tier",
      {{"tier", "parse_diagnostic"}});
  obs::Counter* internal_faults = registry.GetCounter(
      "jfeed_failures_total", "Grading failures by class",
      {{"class", "internal_fault"}});
  const int64_t ast_before = ast_only->Value();
  const int64_t diag_before = parse_diag->Value();
  const int64_t fault_before = internal_faults->Value();

  const auto& assignment =
      kb::KnowledgeBase::Get().assignment("assignment1");
  std::string reference = assignment.Reference();
  auto grade_with_fault = [&](const char* point) {
    fault::FaultConfig config;
    config.only_point = point;
    fault::ScopedFaultInjection injection(config);
    GradingPipeline pipeline(assignment);
    return pipeline.Grade(reference);
  };

  // An EPDG fault drops to the AST-only rung; a parser fault drops all the
  // way to the parse-diagnostic rung. Both count as internal faults.
  EXPECT_EQ(grade_with_fault(fault::points::kEpdgBuilder).tier,
            FeedbackTier::kAstOnly);
  EXPECT_EQ(grade_with_fault(fault::points::kParser).tier,
            FeedbackTier::kParseDiagnostic);

  EXPECT_EQ(ast_only->Value(), ast_before + 1);
  EXPECT_EQ(parse_diag->Value(), diag_before + 1);
  EXPECT_EQ(internal_faults->Value(), fault_before + 2);

  // No fault path left a span open, and the degraded runs still traced.
  EXPECT_EQ(tracer.OpenSpanCount(), 0);
  bool saw_grade_span = false;
  for (const auto& record : tracer.Snapshot()) {
    if (std::string(record.name) == "grade") saw_grade_span = true;
    EXPECT_GE(record.end_ns, record.start_ns);
  }
  EXPECT_TRUE(saw_grade_span);

  ExpectRendersAsPrometheusText(registry.Render());

  tracer.Disable();
  tracer.Clear();
  registry.set_enabled(false);
  registry.ResetForTest();
}

TEST(ChaosTest, BatchUnderFaultsYieldsOneOutcomePerSubmission) {
  const auto& assignment =
      kb::KnowledgeBase::Get().assignment("assignment1");
  fault::FaultConfig config;
  config.probability = 0.5;
  fault::ScopedFaultInjection injection(config);
  GradingPipeline pipeline(assignment);
  auto outcomes = pipeline.GradeBatch({
      assignment.Reference(),
      "void assignment1(int[] a) { int x = 1; }",
      "garbage (",
  });
  ASSERT_EQ(outcomes.size(), 3u);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ExpectValidOutcome(outcomes[i], "batch member " + std::to_string(i));
  }
}

}  // namespace
}  // namespace jfeed::service
