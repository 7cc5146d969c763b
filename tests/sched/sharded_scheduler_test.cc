// Scheduler correctness. Mixed-assignment batches must grade exactly like
// per-assignment pipelines, per-shard admission control must shed the
// spiking tenant and only the spiking tenant, and destruction must answer
// every admitted submission. The one-shard batch path (GradeBatchParallel)
// must be indistinguishable from sequential GradeBatch in everything the
// service contract promises — verdict, tier, failure class, feedback text,
// functional verdict — across every knowledge-base assignment, with
// results in input order, dedup accounted, and no line ever shed.

#include "sched/sharded_scheduler.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kb/assignments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/pipeline.h"
#include "synth/generator.h"

namespace jfeed::sched {
namespace {

std::vector<const kb::Assignment*> Assignments(
    std::initializer_list<const char*> ids) {
  std::vector<const kb::Assignment*> assignments;
  for (const char* id : ids) {
    assignments.push_back(&kb::KnowledgeBase::Get().assignment(id));
  }
  return assignments;
}

const kb::Assignment& Assignment1() {
  return kb::KnowledgeBase::Get().assignment("assignment1");
}

/// The fields the scheduler guarantees byte-identical to sequential
/// grading (timings and position-bearing diagnostics of cached duplicates
/// are explicitly excluded; see ResultCache).
void ExpectEquivalent(const service::GradingOutcome& sequential,
                      const service::GradingOutcome& parallel,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(sequential.verdict, parallel.verdict);
  EXPECT_EQ(sequential.tier, parallel.tier);
  EXPECT_EQ(sequential.failure, parallel.failure);
  EXPECT_EQ(sequential.feedback.matched, parallel.feedback.matched);
  EXPECT_EQ(sequential.feedback.score, parallel.feedback.score);
  ASSERT_EQ(sequential.feedback.comments.size(),
            parallel.feedback.comments.size());
  for (size_t c = 0; c < sequential.feedback.comments.size(); ++c) {
    EXPECT_EQ(sequential.feedback.comments[c].kind,
              parallel.feedback.comments[c].kind);
    EXPECT_EQ(sequential.feedback.comments[c].message,
              parallel.feedback.comments[c].message);
    EXPECT_EQ(sequential.feedback.comments[c].details,
              parallel.feedback.comments[c].details);
  }
  EXPECT_EQ(sequential.functional_ran, parallel.functional_ran);
  if (sequential.functional_ran) {
    EXPECT_EQ(sequential.functional.passed, parallel.functional.passed);
    EXPECT_EQ(sequential.functional.tests_run, parallel.functional.tests_run);
    EXPECT_EQ(sequential.functional.tests_failed,
              parallel.functional.tests_failed);
  }
}

/// A small but adversarial corpus for one assignment: reference, error
/// variants, a comment/whitespace-perturbed duplicate of the reference,
/// a spec-mismatching-but-parseable member, and unparseable garbage.
std::vector<std::string> Corpus(const kb::Assignment& assignment) {
  std::vector<std::string> corpus;
  auto indexes = synth::SampleIndexes(assignment.generator.SpaceSize(), 5);
  for (uint64_t index : indexes) {
    corpus.push_back(assignment.generator.Generate(index));
  }
  corpus.push_back("// dup\n" + assignment.Reference() + "\n\n");
  corpus.push_back("void unrelated(int q) { q = q + 1; }");
  corpus.push_back("int broken( { ][");
  return corpus;
}

int64_t ShedCount(const std::string& assignment) {
  return obs::Registry::Global()
      .GetCounter("jfeed_shed_total", "", {{"assignment", assignment}})
      ->Value();
}

int64_t GradeCount(const std::string& assignment) {
  return obs::Registry::Global()
      .GetHistogram("jfeed_grade_duration_us", "",
                    {{"assignment", assignment}})
      ->Count();
}

class ShardedSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().ResetForTest();
    obs::Registry::Global().set_enabled(true);
  }
  void TearDown() override {
    obs::Registry::Global().set_enabled(false);
    obs::Registry::Global().ResetForTest();
  }
};

TEST_F(ShardedSchedulerTest, MixedBatchMatchesSingleTenantPipelines) {
  auto assignments = Assignments({"assignment1", "mitx-polynomials"});
  std::vector<MixedItem> items;
  for (const kb::Assignment* assignment : assignments) {
    auto indexes = synth::SampleIndexes(assignment->generator.SpaceSize(), 3);
    for (uint64_t index : indexes) {
      items.push_back(MixedItem{assignment->id, "",
                                assignment->generator.Generate(index)});
    }
  }

  ShardedSchedulerOptions sopts;
  sopts.jobs = 4;
  ShardedScheduler scheduler(assignments, {}, sopts);
  auto outcomes = scheduler.GradeMixedBatch(items);
  ASSERT_EQ(outcomes.size(), items.size());

  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
    const auto& assignment =
        kb::KnowledgeBase::Get().assignment(items[i].assignment);
    service::GradingPipeline pipeline(assignment);
    service::GradingOutcome expected = pipeline.Grade(items[i].source);
    SCOPED_TRACE(items[i].assignment + " / item " + std::to_string(i));
    EXPECT_EQ(expected.verdict, outcomes[i].outcome.verdict);
    EXPECT_EQ(expected.tier, outcomes[i].outcome.tier);
    EXPECT_EQ(expected.failure, outcomes[i].outcome.failure);
  }
}

TEST_F(ShardedSchedulerTest, UnknownAssignmentIsPerItemNotFound) {
  ShardedScheduler scheduler(Assignments({"assignment1"}));
  const std::string reference =
      kb::KnowledgeBase::Get().assignment("assignment1").Reference();
  auto outcomes = scheduler.GradeMixedBatch({
      MixedItem{"assignment1", "good", reference},
      MixedItem{"no-such-assignment", "bad", reference},
  });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[0].outcome.verdict, service::Verdict::kCorrect);
  EXPECT_EQ(outcomes[1].status.code(), StatusCode::kNotFound);

  uint64_t ticket = 0;
  Status status = scheduler.Submit("no-such-assignment", reference, "", &ticket);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ShardedSchedulerTest, QuotaShedsSpikingShardOnly) {
  // One worker, quota 1: assignment1's second in-system submission must be
  // shed while the other shard's admission stays open. The slow first
  // submission pins the worker, so admission decisions are deterministic —
  // the quota counts queued AND grading work.
  service::PipelineOptions popts;
  popts.exec.deadline_ms = 400;
  popts.budgets.functional_ms = 400;
  ShardedSchedulerOptions sopts;
  sopts.jobs = 1;
  sopts.shard_queue_capacity = 1;
  sopts.use_result_cache = false;
  ShardedScheduler scheduler(
      Assignments({"assignment1", "mitx-polynomials"}), popts, sopts);

  const std::string slow =
      "void assignment1(int[] a) { while (true) { } }";
  uint64_t slow_ticket = 0;
  ASSERT_TRUE(
      scheduler.Submit("assignment1", slow, "spike-1", &slow_ticket).ok());
  EXPECT_EQ(scheduler.ShardDepth("assignment1"), 1u);

  // The spike: further assignment1 submissions shed immediately.
  uint64_t shed_ticket = 0;
  Status shed =
      scheduler.Submit("assignment1", slow, "spike-2", &shed_ticket);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable) << shed.ToString();
  EXPECT_EQ(ShedCount("assignment1"), 1);

  // The other tenant is unaffected: admission open, no sheds recorded.
  const auto& other = kb::KnowledgeBase::Get().assignment("mitx-polynomials");
  uint64_t other_ticket = 0;
  ASSERT_TRUE(scheduler
                  .Submit("mitx-polynomials", other.Reference(), "calm-1",
                          &other_ticket)
                  .ok());
  EXPECT_EQ(ShedCount("mitx-polynomials"), 0);

  // Every accepted submission is answered; the shed one consumed no slot.
  auto slow_outcome = scheduler.Wait(slow_ticket);
  EXPECT_NE(slow_outcome.verdict, service::Verdict::kCorrect);
  auto other_outcome = scheduler.Wait(other_ticket);
  EXPECT_EQ(other_outcome.verdict, service::Verdict::kCorrect);

  // Quota slots freed: the spiking assignment is admittable again, and the
  // per-assignment grade counters saw exactly the accepted submissions.
  uint64_t retry_ticket = 0;
  EXPECT_TRUE(scheduler
                  .Submit("assignment1",
                          kb::KnowledgeBase::Get()
                              .assignment("assignment1")
                              .Reference(),
                          "retry", &retry_ticket)
                  .ok());
  scheduler.Wait(retry_ticket);
  EXPECT_EQ(GradeCount("assignment1"), 2);
  EXPECT_EQ(GradeCount("mitx-polynomials"), 1);
  EXPECT_EQ(ShedCount("assignment1"), 1);
  EXPECT_EQ(ShedCount("mitx-polynomials"), 0);
}

TEST_F(ShardedSchedulerTest, SaturatedOnlyWhenEveryShardIsAtQuota) {
  service::PipelineOptions popts;
  popts.exec.deadline_ms = 400;
  popts.budgets.functional_ms = 400;
  ShardedSchedulerOptions sopts;
  sopts.jobs = 1;
  sopts.shard_queue_capacity = 1;
  sopts.use_result_cache = false;
  ShardedScheduler scheduler(
      Assignments({"assignment1", "mitx-polynomials"}), popts, sopts);
  EXPECT_FALSE(scheduler.Saturated());

  const std::string slow =
      "void assignment1(int[] a) { while (true) { } }";
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(scheduler.Submit("assignment1", slow, "", &a).ok());
  EXPECT_FALSE(scheduler.Saturated());  // One shard still has room.
  ASSERT_TRUE(scheduler.Submit("mitx-polynomials", slow, "", &b).ok());
  EXPECT_TRUE(scheduler.Saturated());
  scheduler.Wait(a);
  scheduler.Wait(b);
  EXPECT_FALSE(scheduler.Saturated());
}

TEST_F(ShardedSchedulerTest, DrainUnderSpikeAnswersEveryAcceptedSubmission) {
  // A deadline-spike shaped mixed batch bigger than the quotas: every
  // accepted line gets an answer, every over-quota line a clean shed, and
  // nothing leaks — no open spans, shard depths back to zero.
  obs::Tracer::Global().Enable(1u << 10);
  auto assignments = Assignments({"assignment1", "mitx-polynomials"});
  ShardedSchedulerOptions sopts;
  sopts.jobs = 2;
  sopts.shard_queue_capacity = 4;
  ShardedScheduler scheduler(assignments, {}, sopts);

  std::vector<MixedItem> items;
  for (int burst = 0; burst < 30; ++burst) {
    const kb::Assignment* assignment = assignments[burst % 2];
    items.push_back(
        MixedItem{assignment->id, "s" + std::to_string(burst),
                  assignment->generator.Generate(
                      static_cast<uint64_t>(burst) %
                      assignment->generator.SpaceSize())});
  }
  BatchStats stats;
  auto outcomes = scheduler.GradeMixedBatch(items, &stats);
  ASSERT_EQ(outcomes.size(), items.size());
  size_t answered = 0, shed = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.status.ok()) {
      ++answered;
      EXPECT_NE(outcome.outcome.verdict, service::Verdict::kNotGraded);
    } else {
      EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(answered + shed, items.size());
  EXPECT_GT(answered, 0u);
  EXPECT_EQ(scheduler.ShardDepth("assignment1"), 0u);
  EXPECT_EQ(scheduler.ShardDepth("mitx-polynomials"), 0u);
  EXPECT_EQ(obs::Tracer::Global().OpenSpanCount(), 0);
  obs::Tracer::Global().Disable();
}

TEST_F(ShardedSchedulerTest, CacheIsKeyedPerAssignment) {
  // The same token stream under two assignments must not cross-hit: the
  // cache key is (assignment, fingerprint).
  auto assignments = Assignments({"assignment1", "mitx-polynomials"});
  ShardedScheduler scheduler(assignments);
  const std::string source = "void unrelated(int q) { q = q + 1; }";
  BatchStats stats;
  auto first = scheduler.GradeMixedBatch(
      {MixedItem{"assignment1", "", source}}, &stats);
  EXPECT_EQ(stats.graded, 1u);
  auto second = scheduler.GradeMixedBatch(
      {MixedItem{"mitx-polynomials", "", source}}, &stats);
  EXPECT_EQ(stats.graded, 1u) << "cross-assignment cache hit";
  auto third = scheduler.GradeMixedBatch(
      {MixedItem{"assignment1", "", source}}, &stats);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.graded, 0u);
  EXPECT_EQ(third[0].disposition, std::string("hit"));
}

TEST_F(ShardedSchedulerTest, BatchQuotaIsTheBatchSize) {
  // One worker cannot keep up with non-blocking admission, so a quota
  // smaller than the batch (such as the default 64) would shed the tail.
  const kb::Assignment& assignment = Assignment1();
  std::vector<std::string> corpus;
  for (uint64_t index :
       synth::SampleIndexes(assignment.generator.SpaceSize(), 100)) {
    corpus.push_back(assignment.generator.Generate(index));
  }
  ASSERT_EQ(corpus.size(), 100u);
  ShardedSchedulerOptions sopts;
  sopts.jobs = 1;
  BatchStats stats;
  auto outcomes = service::GradeBatchParallel(assignment, corpus, {}, sopts,
                                              {}, &stats);
  ASSERT_EQ(outcomes.size(), corpus.size());
  EXPECT_EQ(stats.graded, corpus.size());
  size_t not_graded = 0;
  for (const auto& outcome : outcomes) {
    not_graded += outcome.verdict == service::Verdict::kNotGraded ? 1 : 0;
  }
  EXPECT_EQ(not_graded, 0u);
  EXPECT_EQ(ShedCount(assignment.id), 0);
}

TEST(SchedulerDeterminismTest, ParallelMatchesSequentialOnAllAssignments) {
  for (const auto& id : kb::KnowledgeBase::Get().assignment_ids()) {
    const auto& assignment = kb::KnowledgeBase::Get().assignment(id);
    std::vector<std::string> corpus = Corpus(assignment);

    service::GradingPipeline pipeline(assignment);
    auto sequential = pipeline.GradeBatch(corpus);

    ShardedSchedulerOptions sopts;
    sopts.jobs = 8;
    auto parallel =
        service::GradeBatchParallel(assignment, corpus, {}, sopts);

    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      ExpectEquivalent(sequential[i], parallel[i],
                       id + " / submission " + std::to_string(i));
    }
  }
}

TEST(SchedulerTest, ResultsComeBackInInputOrder) {
  // Mix fast (garbage) and slow (functional-suite) members; input order
  // must survive arbitrary completion order.
  // The two parse-failing members differ only in the line their error lands
  // on, so the diagnostics pin each outcome to its input slot.
  std::vector<std::string> corpus = {
      Assignment1().Reference(),
      "(",
      Assignment1().Reference(),
      "\n\n\n(",
  };
  ShardedSchedulerOptions sopts;
  sopts.jobs = 4;
  sopts.use_result_cache = false;  // Force all four through workers.
  auto outcomes = service::GradeBatchParallel(Assignment1(), corpus, {}, sopts);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].verdict, service::Verdict::kCorrect);
  EXPECT_EQ(outcomes[1].verdict, service::Verdict::kNotGraded);
  EXPECT_NE(outcomes[1].diagnostic.find("line 1"), std::string::npos)
      << "order scrambled: " << outcomes[1].diagnostic;
  EXPECT_EQ(outcomes[2].verdict, service::Verdict::kCorrect);
  EXPECT_EQ(outcomes[3].verdict, service::Verdict::kNotGraded);
  EXPECT_NE(outcomes[3].diagnostic.find("line 4"), std::string::npos)
      << "order scrambled: " << outcomes[3].diagnostic;
}

TEST(SchedulerTest, DuplicatesAreGradedOnceAndAccounted) {
  std::vector<MixedItem> batch(
      6, MixedItem{"assignment1", "", Assignment1().Reference(), {}});
  batch.push_back(MixedItem{"assignment1", "",
                            "// perturbed\n" + Assignment1().Reference(), {}});

  ShardedScheduler scheduler({&Assignment1()});
  BatchStats stats;
  auto outcomes = scheduler.GradeMixedBatch(batch, &stats);
  ASSERT_EQ(outcomes.size(), 7u);
  EXPECT_EQ(stats.submissions, 7u);
  EXPECT_EQ(stats.graded, 1u);      // One pipeline run for all seven.
  EXPECT_EQ(stats.dedup_hits, 6u);  // Six coalesced onto it.
  for (const auto& line : outcomes) {
    EXPECT_EQ(line.outcome.verdict, service::Verdict::kCorrect);
  }

  // A second batch over the same content is served entirely from the
  // cache: with nothing in flight there is nothing to coalesce onto, so
  // every member counts as a cache hit, not a dedup hit.
  auto again = scheduler.GradeMixedBatch(batch, &stats);
  EXPECT_EQ(stats.graded, 0u);
  EXPECT_EQ(stats.cache_hits, 7u);
  EXPECT_EQ(stats.dedup_hits, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0);
  EXPECT_EQ(again[0].outcome.verdict, service::Verdict::kCorrect);
}

TEST(SchedulerTest, StreamingSubmitWaitRoundTrip) {
  ShardedSchedulerOptions sopts;
  sopts.jobs = 2;
  ShardedScheduler scheduler({&Assignment1()}, {}, sopts);
  uint64_t good = 0, bad = 0;
  ASSERT_TRUE(
      scheduler.Submit("assignment1", Assignment1().Reference(), "", &good)
          .ok());
  ASSERT_TRUE(scheduler.Submit("assignment1", "garbage (", "", &bad).ok());
  EXPECT_EQ(scheduler.Wait(bad).verdict, service::Verdict::kNotGraded);
  EXPECT_EQ(scheduler.Wait(good).verdict, service::Verdict::kCorrect);
}

TEST(SchedulerTest, JobsClampedToAtLeastOne) {
  ShardedSchedulerOptions sopts;
  sopts.jobs = 0;
  ShardedScheduler scheduler({&Assignment1()}, {}, sopts);
  EXPECT_EQ(scheduler.jobs(), 1);
  auto outcomes = scheduler.GradeMixedBatch(
      {MixedItem{"assignment1", "", Assignment1().Reference(), {}}});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].outcome.verdict, service::Verdict::kCorrect);
}

}  // namespace
}  // namespace jfeed::sched
