// The equivalence gate for Algorithm 1: core::MatchPattern must return the
// same canonical embeddings, byte for byte, as the pre-index backtracker
// kept under tests/testutil as the reference, in no more steps, across the
// synthetic corpus of every assignment in the knowledge base. It checks
// every (spec pattern or variant, method graph) pair, a superset of the
// MatchPattern calls Algorithm 2 makes on a submission. Every production
// embedding must also satisfy Definition 7 on its own.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pattern_matcher.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "pdg/epdg.h"
#include "pdg/match_index.h"
#include "synth/generator.h"
#include "tests/testutil/legacy_matcher.h"

namespace jfeed {
namespace {

constexpr uint64_t kSamplesPerAssignment = 10;

std::string DescribeEmbeddings(const std::vector<core::Embedding>& ms) {
  std::string out;
  for (const auto& m : ms) {
    out += "m{";
    for (const auto& [u, v] : m.iota) {
      out += std::to_string(u) + "->" + std::to_string(v) + ",";
    }
    out += "|";
    for (const auto& [pv, sv] : m.gamma) out += pv + "=" + sv + ",";
    out += "|";
    for (int u : m.incorrect_nodes) out += std::to_string(u) + ",";
    out += "}\n";
  }
  return out;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  const kb::Assignment& assignment() const {
    return kb::KnowledgeBase::Get().assignment(GetParam());
  }
};

TEST_P(EngineEquivalenceTest, PerPatternEmbeddingsAreByteIdentical) {
  const auto& a = assignment();
  auto indexes =
      synth::SampleIndexes(a.generator.SpaceSize(), kSamplesPerAssignment);
  for (uint64_t index : indexes) {
    auto unit = java::Parse(a.generator.Generate(index));
    ASSERT_TRUE(unit.ok());
    auto graphs = pdg::BuildAllEpdgs(*unit);
    ASSERT_TRUE(graphs.ok());
    for (const auto& g : *graphs) {
      pdg::MatchIndex match_index(g);
      std::vector<const core::Pattern*> patterns;
      for (const auto& method : a.spec.methods) {
        for (const auto& use : method.patterns) {
          patterns.push_back(use.pattern);
          for (const auto& variant : use.variants) {
            patterns.push_back(variant.pattern);
          }
        }
      }
      for (const core::Pattern* pattern : patterns) {
        if (pattern == nullptr) continue;
        const std::string context =
            a.id + " index " + std::to_string(index) + " pattern " +
            pattern->id + " method " + g.method_name();
        core::MatchStats legacy_stats, indexed_stats;
        auto legacy_ms =
            core::testutil::LegacyMatchPattern(*pattern, g, {}, &legacy_stats);
        auto indexed_ms =
            core::MatchPattern(*pattern, g, match_index, {}, &indexed_stats);
        EXPECT_EQ(DescribeEmbeddings(legacy_ms),
                  DescribeEmbeddings(indexed_ms))
            << context;
        EXPECT_LE(indexed_stats.steps, legacy_stats.steps)
            << context << ": pruning must never add backtracking steps";
        for (const auto& m : indexed_ms) {
          EXPECT_EQ(core::testutil::Definition7Violation(*pattern, g, m), "")
              << context;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAssignments, EngineEquivalenceTest,
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

}  // namespace
}  // namespace jfeed
