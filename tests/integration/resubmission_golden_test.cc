// Golden equivalence suite for incremental resubmission grading (DESIGN.md
// §3d): for every assignment, a seeded resubmission chain graded cold (no
// method cache) and with the method cache enabled must produce
// byte-identical feedback — verdicts, tiers, comments, scores, functional
// results, even the matcher work counters. On top of equivalence it pins
// the cache-accounting contract: per-step methods_reused/methods_regraded
// match a fingerprint-level simulation of the cache, dispositions resolve
// to partial_hit exactly when methods were reused, and identical helper
// methods under two assignment ids never cross-hit.
//
// The chaos half covers the new cache.method_lookup injection point: a
// campaign forcing every lookup to fail must degrade to a healthy full
// regrade — same bytes, no ladder-rung drop, no poisoned entry — with the
// fallback counted in the cache stats.

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "javalang/parser.h"
#include "kb/assignments.h"
#include "service/method_cache.h"
#include "service/pipeline.h"
#include "support/fault.h"
#include "testing/resubmission.h"

namespace jfeed {
namespace {

/// Everything observable about an outcome except wall-clock noise (stage
/// timings, arena bytes) and the cache accounting itself.
std::string DescribeOutcome(const service::GradingOutcome& o) {
  std::string out;
  out += service::VerdictName(o.verdict);
  out += "|";
  out += service::FeedbackTierName(o.tier);
  out += "|";
  out += service::StageName(o.stage_reached);
  out += "|";
  out += service::FailureClassName(o.failure);
  out += "|" + o.diagnostic + "\n";
  const auto& f = o.feedback;
  out += f.matched ? "matched " : "unmatched ";
  out += std::to_string(f.score) + " steps=" +
         std::to_string(f.match_stats.steps) + " regex=" +
         std::to_string(f.match_stats.regex_checks) + "\n";
  for (const auto& [q, h] : f.method_assignment) out += q + "=" + h + "\n";
  for (const auto& c : f.comments) {
    out += c.source_id + "|" + c.method + "|" +
           std::to_string(static_cast<int>(c.kind)) + "|" + c.message + "\n";
    for (const auto& d : c.details) out += "  " + d + "\n";
  }
  if (o.functional_ran) {
    out += "functional " + std::to_string(o.functional.passed) + " " +
           std::to_string(o.functional.tests_run) + " " +
           std::to_string(o.functional.tests_failed) + " " +
           o.functional.first_failure + "\n";
  }
  return out;
}

class ResubmissionGoldenTest : public ::testing::TestWithParam<const char*> {
 protected:
  const kb::Assignment& assignment() const {
    return kb::KnowledgeBase::Get().assignment(GetParam());
  }
};

TEST_P(ResubmissionGoldenTest, CachedFeedbackIsByteIdenticalToColdFeedback) {
  const auto& a = assignment();
  testing::ResubmissionChainOptions chain_options;
  chain_options.seed = 0x5eed0000 + static_cast<uint64_t>(a.id.size());
  chain_options.steps = 6;
  auto chain =
      testing::BuildResubmissionChain(a.id, a.generator, chain_options);

  service::GradingPipeline cold(a);
  service::PipelineOptions warm_options;
  warm_options.method_cache = std::make_shared<service::MethodCache>();
  service::GradingPipeline warm(a, warm_options);

  // Fingerprint-level simulation of the cache: a method reuses iff its
  // fingerprint was seen earlier in the chain (capacity is unbounded at
  // this scale, so the simulation is exact).
  std::set<uint64_t> seen;

  for (const auto& step : chain) {
    service::GradingOutcome cold_outcome = cold.Grade(step.source);
    service::GradingOutcome warm_outcome = warm.Grade(step.source);
    EXPECT_EQ(DescribeOutcome(cold_outcome), DescribeOutcome(warm_outcome))
        << a.id << " " << step.id << " ("
        << testing::ResubmitKindName(step.kind) << ")";

    // Cold grades never touch the method cache.
    EXPECT_EQ(cold_outcome.methods_reused, 0) << step.id;
    EXPECT_EQ(cold_outcome.methods_regraded, 0) << step.id;

    int expect_reused = 0;
    int expect_regraded = 0;
    auto unit = java::Parse(step.source);
    ASSERT_TRUE(unit.ok()) << step.id;
    for (const auto& method : unit->methods) {
      if (seen.count(method.fingerprint) > 0) {
        ++expect_reused;
      } else {
        ++expect_regraded;
        seen.insert(method.fingerprint);
      }
    }
    EXPECT_EQ(warm_outcome.methods_reused, expect_reused) << step.id;
    EXPECT_EQ(warm_outcome.methods_regraded, expect_regraded) << step.id;

    // Disposition contract: partial_hit exactly when methods were reused.
    const char* disposition = service::CacheDispositionName(
        service::ResolveCacheDisposition(service::CacheDisposition::kOff,
                                         warm_outcome));
    if (expect_reused > 0) {
      EXPECT_STREQ(disposition, "partial_hit") << step.id;
    } else {
      EXPECT_STREQ(disposition, "off") << step.id;
    }

    // The ≥60% floor the bench gates on: any resubmission keeps at least
    // the two helper methods, i.e. two thirds of its methods.
    if (step.kind != testing::ResubmitKind::kInitial) {
      EXPECT_GE(warm_outcome.methods_reused, 2) << step.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAssignments, ResubmissionGoldenTest,
    ::testing::ValuesIn([]() {
      std::vector<const char*> ids;
      for (const auto& id : kb::KnowledgeBase::Get().assignment_ids()) {
        ids.push_back(id.c_str());
      }
      return ids;
    }()),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ResubmissionIsolationTest, SharedMethodBodiesNeverCrossAssignments) {
  // Two different assignments, one shared cache. Every chain submission
  // carries the same two helper methods, so if keying by assignment id
  // ever broke, the second assignment's first grade would reuse them.
  const auto& kb = kb::KnowledgeBase::Get();
  auto ids = kb.assignment_ids();
  ASSERT_GE(ids.size(), 2u);
  const auto& a = kb.assignment(ids[0]);
  const auto& b = kb.assignment(ids[1]);

  auto cache = std::make_shared<service::MethodCache>();
  service::PipelineOptions options;
  options.method_cache = cache;
  service::GradingPipeline pipeline_a(a, options);
  service::GradingPipeline pipeline_b(b, options);

  testing::ResubmissionChainOptions chain_options;
  chain_options.steps = 2;
  auto chain_a = testing::BuildResubmissionChain(a.id, a.generator,
                                                 chain_options);
  for (const auto& step : chain_a) pipeline_a.Grade(step.source);

  auto chain_b = testing::BuildResubmissionChain(b.id, b.generator,
                                                 chain_options);
  service::GradingOutcome first_b = pipeline_b.Grade(chain_b[0].source);
  EXPECT_EQ(first_b.methods_reused, 0)
      << "helper methods leaked across assignment ids";
  EXPECT_EQ(first_b.methods_regraded, 3);
}

TEST(ResubmissionChaosTest, LookupFaultDegradesToHealthyFullRegrade) {
  const auto& kb = kb::KnowledgeBase::Get();
  const auto& a = kb.assignment(kb.assignment_ids().front());

  auto cache = std::make_shared<service::MethodCache>();
  service::PipelineOptions options;
  options.method_cache = cache;
  service::GradingPipeline warm(a, options);
  service::GradingPipeline cold(a);

  testing::ResubmissionChainOptions chain_options;
  chain_options.steps = 1;
  chain_options.duplicate_prob = 0.0;
  chain_options.comment_prob = 0.0;
  chain_options.rename_prob = 0.0;
  auto chain = testing::BuildResubmissionChain(a.id, a.generator,
                                               chain_options);

  // Warm the cache, then note its size: the campaign must not grow it.
  warm.Grade(chain[0].source);
  size_t size_before = cache->size();
  ASSERT_GT(size_before, 0u);

  service::GradingOutcome faulted;
  {
    fault::FaultConfig config;
    config.probability = 1.0;
    config.only_point = fault::points::kMethodCacheLookup;
    fault::ScopedFaultInjection campaign(config);
    faulted = warm.Grade(chain[1].source);
  }
  service::GradingOutcome reference = cold.Grade(chain[1].source);

  // Degrade-to-regrade, not a ladder rung: same bytes, healthy outcome.
  EXPECT_EQ(DescribeOutcome(faulted), DescribeOutcome(reference));
  EXPECT_EQ(faulted.failure, service::FailureClass::kNone);
  EXPECT_EQ(faulted.tier, service::FeedbackTier::kFullEpdg);
  EXPECT_EQ(faulted.methods_reused, 0);
  EXPECT_EQ(service::ResolveCacheDisposition(service::CacheDisposition::kOff,
                                             faulted),
            service::CacheDisposition::kOff);

  // Metrics coherence: the fallback was counted, nothing was inserted.
  service::MethodCacheStats stats = cache->stats();
  EXPECT_GE(stats.fallbacks, 1u);
  EXPECT_EQ(cache->size(), size_before);

  // And the campaign left no poison: the same resubmission now reuses the
  // helpers again and still matches the cold bytes.
  service::GradingOutcome after = warm.Grade(chain[1].source);
  EXPECT_EQ(DescribeOutcome(after), DescribeOutcome(reference));
  EXPECT_GE(after.methods_reused, 2);
}

}  // namespace
}  // namespace jfeed
