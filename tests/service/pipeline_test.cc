// Unit tests for the hardened grading pipeline: the degradation ladder,
// failure classification, stage timings, batch isolation and the JSON
// rendering of outcomes.

#include <gtest/gtest.h>

#include <iterator>

#include "javalang/parser.h"
#include "kb/assignments.h"
#include "obs/metrics.h"
#include "service/pipeline.h"
#include "support/fault.h"

namespace jfeed::service {
namespace {

const kb::Assignment& Assignment1() {
  return kb::KnowledgeBase::Get().assignment("assignment1");
}

TEST(GradingPipelineTest, ReferenceSolutionIsCorrectAtFullTier) {
  GradingPipeline pipeline(Assignment1());
  GradingOutcome outcome = pipeline.Grade(Assignment1().Reference());
  EXPECT_EQ(outcome.verdict, Verdict::kCorrect);
  EXPECT_EQ(outcome.tier, FeedbackTier::kFullEpdg);
  EXPECT_EQ(outcome.stage_reached, Stage::kComplete);
  EXPECT_EQ(outcome.failure, FailureClass::kNone);
  EXPECT_FALSE(outcome.degraded());
  EXPECT_TRUE(outcome.functional_ran);
  EXPECT_TRUE(outcome.functional.passed);
  // Parse, EPDG, match and functional all ran and were timed.
  EXPECT_EQ(outcome.timings.size(), 4u);
}

TEST(GradingPipelineTest, GarbageDegradesToParseDiagnostic) {
  GradingPipeline pipeline(Assignment1());
  GradingOutcome outcome = pipeline.Grade("int f( { ][ this is not java");
  EXPECT_EQ(outcome.verdict, Verdict::kNotGraded);
  EXPECT_EQ(outcome.tier, FeedbackTier::kParseDiagnostic);
  EXPECT_EQ(outcome.failure, FailureClass::kParseError);
  EXPECT_TRUE(outcome.degraded());
  EXPECT_FALSE(outcome.diagnostic.empty());
}

TEST(GradingPipelineTest, WrongMethodCountIsSpecMismatch) {
  // Two-method spec, one-method submission: parses fine but cannot adhere.
  kb::Assignment two_methods = Assignment1();
  two_methods.spec.methods.push_back(two_methods.spec.methods[0]);
  GradingPipeline pipeline(two_methods);
  GradingOutcome outcome =
      pipeline.Grade("void assignment1(int[] a) { int x = 0; }");
  EXPECT_EQ(outcome.verdict, Verdict::kSpecMismatch);
  EXPECT_EQ(outcome.failure, FailureClass::kNone);
  EXPECT_FALSE(outcome.feedback.matched);
  EXPECT_FALSE(outcome.functional_ran);
}

TEST(GradingPipelineTest, EpdgFaultDegradesToAstOnlyFeedback) {
  fault::FaultConfig config;
  config.only_point = fault::points::kEpdgBuilder;
  fault::ScopedFaultInjection injection(config);

  GradingPipeline pipeline(Assignment1());
  GradingOutcome outcome = pipeline.Grade(Assignment1().Reference());
  EXPECT_EQ(outcome.tier, FeedbackTier::kAstOnly);
  EXPECT_EQ(outcome.failure, FailureClass::kInternalFault);
  EXPECT_TRUE(outcome.degraded());
  // Still graded: AST-only feedback covers every pattern use of the spec.
  EXPECT_NE(outcome.verdict, Verdict::kNotGraded);
  EXPECT_TRUE(outcome.feedback.matched);
  EXPECT_FALSE(outcome.feedback.comments.empty());
}

TEST(GradingPipelineTest, AstOnlyTierFindsReferencePatternsPresent) {
  fault::FaultConfig config;
  config.only_point = fault::points::kEpdgBuilder;
  fault::ScopedFaultInjection injection(config);

  GradingPipeline pipeline(Assignment1());
  GradingOutcome outcome = pipeline.Grade(Assignment1().Reference());
  ASSERT_EQ(outcome.tier, FeedbackTier::kAstOnly);
  // The reference realizes every expected pattern, so no comment may claim
  // a pattern is missing (kNotExpected) in the degraded tier either.
  for (const auto& comment : outcome.feedback.comments) {
    EXPECT_NE(comment.kind, core::FeedbackKind::kNotExpected)
        << comment.source_id << ": " << comment.message;
  }
}

TEST(GradingPipelineTest, ColdGradeBuildsEachMethodGraphOnce) {
  // The match stage runs on the graphs the EPDG stage built. A
  // probability-0 campaign fails nothing and counts every builder crossing.
  for (const auto& id : kb::KnowledgeBase::Get().assignment_ids()) {
    const kb::Assignment& assignment = kb::KnowledgeBase::Get().assignment(id);
    auto unit = java::Parse(assignment.Reference());
    ASSERT_TRUE(unit.ok()) << id;
    GradingPipeline pipeline(assignment);
    fault::FaultConfig config;
    config.probability = 0.0;
    fault::ScopedFaultInjection injection(config);
    GradingOutcome outcome = pipeline.Grade(assignment.Reference());
    EXPECT_EQ(outcome.tier, FeedbackTier::kFullEpdg) << id;
    EXPECT_EQ(fault::Injector::Get().Hits(fault::points::kEpdgBuilder),
              static_cast<int64_t>(unit->methods.size()))
        << id;
  }
}

TEST(GradingPipelineTest, MatcherFaultAlsoDegradesToAstOnly) {
  fault::FaultConfig config;
  config.only_point = fault::points::kMatcher;
  fault::ScopedFaultInjection injection(config);

  GradingPipeline pipeline(Assignment1());
  GradingOutcome outcome = pipeline.Grade(Assignment1().Reference());
  EXPECT_EQ(outcome.tier, FeedbackTier::kAstOnly);
  EXPECT_EQ(outcome.failure, FailureClass::kInternalFault);
  EXPECT_NE(outcome.verdict, Verdict::kNotGraded);
}

TEST(GradingPipelineTest, ParserFaultDegradesToParseDiagnostic) {
  fault::FaultConfig config;
  config.only_point = fault::points::kParser;
  fault::ScopedFaultInjection injection(config);

  GradingPipeline pipeline(Assignment1());
  GradingOutcome outcome = pipeline.Grade(Assignment1().Reference());
  EXPECT_EQ(outcome.verdict, Verdict::kNotGraded);
  EXPECT_EQ(outcome.tier, FeedbackTier::kParseDiagnostic);
  EXPECT_EQ(outcome.failure, FailureClass::kInternalFault);
}

TEST(GradingPipelineTest, AdversarialSubmissionIsClassifiedNotCrashed) {
  PipelineOptions options;
  options.exec.deadline_ms = 200;
  GradingPipeline pipeline(Assignment1(), options);
  // Parses and adheres to the spec, but loops forever when executed.
  GradingOutcome outcome = pipeline.Grade(
      "void assignment1(int[] a) { while (true) { } }");
  EXPECT_EQ(outcome.stage_reached, Stage::kComplete);
  EXPECT_NE(outcome.verdict, Verdict::kCorrect);
  EXPECT_TRUE(outcome.functional_ran);
  EXPECT_FALSE(outcome.functional.passed);
  EXPECT_GT(outcome.functional.timeouts, 0);
}

TEST(GradingPipelineTest, BatchIsolatesAdversarialMembers) {
  PipelineOptions options;
  options.exec.deadline_ms = 200;
  GradingPipeline pipeline(Assignment1(), options);
  auto outcomes = pipeline.GradeBatch({
      "void assignment1(int[] a) { while (true) { } }",
      Assignment1().Reference(),
      "not even java (",
  });
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_NE(outcomes[0].verdict, Verdict::kCorrect);
  EXPECT_EQ(outcomes[1].verdict, Verdict::kCorrect);  // Unaffected neighbor.
  EXPECT_FALSE(outcomes[1].degraded());
  EXPECT_EQ(outcomes[2].verdict, Verdict::kNotGraded);
}

TEST(GradingPipelineTest, OutcomeJsonIsWellFormedAndEscaped) {
  GradingPipeline pipeline(Assignment1());
  GradingOutcome outcome = pipeline.Grade("int f( \"uh \\oh\n");
  std::string json = OutcomeToJson(outcome);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"verdict\":\"not_graded\""), std::string::npos);
  EXPECT_NE(json.find("\"tier\":\"parse_diagnostic\""), std::string::npos);
  EXPECT_NE(json.find("\"failure_class\":\"parse_error\""),
            std::string::npos);
  // No raw control characters or unescaped quotes may survive.
  for (size_t i = 0; i < json.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(json[i]), 0x20) << "at " << i;
  }
}

TEST(GradingPipelineTest, OutcomeJsonCarriesStageTimings) {
  GradingPipeline pipeline(Assignment1());
  GradingOutcome outcome = pipeline.Grade(Assignment1().Reference());
  std::string json = OutcomeToJson(outcome);
  // A full grade ran all four stages; each appears once in the summary
  // object, keyed by stage name.
  EXPECT_NE(json.find("\"stage_timings\":{\"parse\":"), std::string::npos);
  EXPECT_NE(json.find("\"epdg\":"), std::string::npos);
  EXPECT_NE(json.find("\"match\":"), std::string::npos);
  EXPECT_NE(json.find("\"functional\":"), std::string::npos);

  // A parse failure never reaches the later stages, so they are absent.
  GradingOutcome failed = pipeline.Grade("int f( \"uh\n");
  std::string failed_json = OutcomeToJson(failed);
  size_t summary = failed_json.find("\"stage_timings\":{\"parse\":");
  ASSERT_NE(summary, std::string::npos);
  EXPECT_EQ(failed_json.find("\"epdg\":", summary), std::string::npos);
}

TEST(GradingPipelineTest, TimingsCoverEveryStageThatRan) {
  GradingPipeline pipeline(Assignment1());
  GradingOutcome outcome = pipeline.Grade(Assignment1().Reference());
  ASSERT_EQ(outcome.timings.size(), 4u);
  EXPECT_EQ(outcome.timings[0].stage, Stage::kParse);
  EXPECT_EQ(outcome.timings[1].stage, Stage::kEpdg);
  EXPECT_EQ(outcome.timings[2].stage, Stage::kMatch);
  EXPECT_EQ(outcome.timings[3].stage, Stage::kFunctional);
  for (const auto& timing : outcome.timings) {
    EXPECT_GE(timing.wall_ms, 0.0);
    EXPECT_TRUE(timing.status.ok());
  }
}

TEST(CacheDispositionTest, EachDispositionCountsUnderItsOwnLabel) {
  obs::Registry& registry = obs::Registry::Global();
  registry.ResetForTest();
  registry.set_enabled(true);
  const CacheDisposition all[] = {
      CacheDisposition::kHit, CacheDisposition::kDedup,
      CacheDisposition::kMiss, CacheDisposition::kOff,
      CacheDisposition::kPartialHit};
  // Disposition i is counted i + 1 times, so a count landing under another
  // label shows.
  for (size_t i = 0; i < std::size(all); ++i) {
    for (size_t n = 0; n <= i; ++n) CountCacheDisposition(all[i]);
  }
  const char* names[] = {"hit", "dedup", "miss", "off", "partial_hit"};
  for (size_t i = 0; i < std::size(all); ++i) {
    EXPECT_STREQ(CacheDispositionName(all[i]), names[i]);
    EXPECT_EQ(registry
                  .GetCounter("jfeed_cache_requests_total", "",
                              {{"disposition", names[i]}})
                  ->Value(),
              static_cast<int64_t>(i + 1))
        << names[i];
  }
  registry.set_enabled(false);
  registry.ResetForTest();
}

TEST(CacheDispositionTest, MethodReuseTurnsOnlyGradedLinesPartial) {
  GradingOutcome reused;
  reused.methods_reused = 1;
  GradingOutcome fresh;
  EXPECT_EQ(ResolveCacheDisposition(CacheDisposition::kMiss, reused),
            CacheDisposition::kPartialHit);
  EXPECT_EQ(ResolveCacheDisposition(CacheDisposition::kOff, reused),
            CacheDisposition::kPartialHit);
  EXPECT_EQ(ResolveCacheDisposition(CacheDisposition::kHit, reused),
            CacheDisposition::kHit);
  EXPECT_EQ(ResolveCacheDisposition(CacheDisposition::kDedup, reused),
            CacheDisposition::kDedup);
  EXPECT_EQ(ResolveCacheDisposition(CacheDisposition::kMiss, fresh),
            CacheDisposition::kMiss);
  EXPECT_EQ(ResolveCacheDisposition(CacheDisposition::kOff, fresh),
            CacheDisposition::kOff);
}

}  // namespace
}  // namespace jfeed::service
