#include "kb/assignments.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/feedback.h"
#include "javalang/parser.h"

namespace jfeed::kb {
namespace {

TEST(PatternLibraryTest, HasTwentyFourUniquePatterns) {
  // Paper, contributions: "Our knowledge base contains twenty four unique
  // patterns".
  EXPECT_EQ(PatternLibrary::Get().size(), 24u);
}

TEST(PatternLibraryTest, AllPatternsValidate) {
  for (const auto& id : PatternLibrary::Get().ids()) {
    const core::Pattern& p = PatternLibrary::Get().at(id);
    EXPECT_TRUE(p.Validate().ok()) << id;
    EXPECT_FALSE(p.name.empty()) << id;
    EXPECT_FALSE(p.feedback_present.empty()) << id;
    EXPECT_FALSE(p.feedback_missing.empty()) << id;
  }
}

TEST(PatternLibraryTest, PatternVariablesAreGloballyDisjoint) {
  // Definition 10 requires disjoint variable sets across patterns combined
  // in containment constraints; the library guarantees it globally.
  std::set<std::string> seen;
  for (const auto& id : PatternLibrary::Get().ids()) {
    for (const auto& var : PatternLibrary::Get().at(id).Variables()) {
      EXPECT_TRUE(seen.insert(var).second)
          << "variable '" << var << "' reused by pattern " << id;
    }
  }
}

TEST(KnowledgeBaseTest, HasTwelveAssignments) {
  EXPECT_EQ(KnowledgeBase::Get().size(), 12u);
}

TEST(KnowledgeBaseTest, EveryPatternIsUsedSomewhere) {
  std::set<std::string> used;
  const auto& kb = KnowledgeBase::Get();
  for (const auto& id : kb.assignment_ids()) {
    for (const auto& method : kb.assignment(id).spec.methods) {
      for (const auto& use : method.patterns) {
        used.insert(use.pattern->id);
      }
    }
  }
  for (const auto& id : PatternLibrary::Get().ids()) {
    EXPECT_TRUE(used.count(id) > 0) << "pattern never used: " << id;
  }
}

struct TableOneRow {
  const char* id;
  uint64_t s;
  int p;
  int c;
};

// Table I of the paper: columns S, P, C.
constexpr TableOneRow kTableOne[] = {
    {"assignment1", 640000, 6, 4},
    {"esc-LAB-3-P1-V1", 442368, 7, 5},
    {"esc-LAB-3-P2-V1", 7077888, 8, 13},
    {"esc-LAB-3-P2-V2", 144, 4, 5},
    {"esc-LAB-3-P3-V1", 10368, 7, 6},
    {"esc-LAB-3-P3-V2", 589824, 8, 10},
    {"esc-LAB-3-P4-V1", 13824, 7, 6},
    {"esc-LAB-3-P4-V2", 9437184, 9, 14},
    {"mitx-derivatives", 576, 3, 4},
    {"mitx-polynomials", 768, 4, 4},
    {"rit-all-g-medals", 559872, 9, 7},
    {"rit-medals-by-ath", 746496, 9, 7},
};

// The Table I assignments keyed by id alone. A `const char*` param prints as
// its string, so the test names stay stable; a struct param would print as
// raw bytes, the address held in its `id` among them.
class AssignmentIdTest : public ::testing::TestWithParam<const char*> {
 protected:
  const Assignment& assignment() const {
    return KnowledgeBase::Get().assignment(GetParam());
  }
  // Every param comes from kTableOne, so the row is always found.
  const TableOneRow& row() const {
    return *std::find_if(std::begin(kTableOne), std::end(kTableOne),
                         [&](const TableOneRow& row) {
                           return std::string_view(row.id) == GetParam();
                         });
  }
};

TEST_P(AssignmentIdTest, ReferenceParses) {
  const Assignment& a = assignment();
  auto unit = java::Parse(a.Reference());
  ASSERT_TRUE(unit.ok()) << unit.status().ToString() << "\n" << a.Reference();
  EXPECT_NE(unit->FindMethod(a.suite.method), nullptr);
}

TEST_P(AssignmentIdTest, SearchSpaceSizeMatchesTableOne) {
  const Assignment& a = assignment();
  EXPECT_TRUE(a.generator.Validate().ok())
      << a.generator.Validate().ToString();
  EXPECT_EQ(a.generator.SpaceSize(), row().s);
}

TEST_P(AssignmentIdTest, PatternAndConstraintCountsMatchTableOne) {
  const Assignment& a = assignment();
  EXPECT_EQ(a.spec.PatternCount(), static_cast<size_t>(row().p));
  EXPECT_EQ(a.spec.ConstraintCount(), static_cast<size_t>(row().c));
}

TEST_P(AssignmentIdTest, ReferencePassesItsOwnFunctionalSuite) {
  const Assignment& a = assignment();
  auto unit = java::Parse(a.Reference());
  ASSERT_TRUE(unit.ok());
  auto expected = testing::ComputeExpectedOutputs(*unit, a.suite);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto verdict = testing::RunSuite(*unit, a.suite, *expected);
  EXPECT_TRUE(verdict.passed) << verdict.first_failure;
}

TEST_P(AssignmentIdTest, ReferenceGetsAllCorrectFeedback) {
  const Assignment& a = assignment();
  auto fb = core::MatchSubmissionSource(a.spec, a.Reference());
  ASSERT_TRUE(fb.ok()) << fb.status().ToString();
  ASSERT_TRUE(fb->matched);
  EXPECT_TRUE(fb->AllCorrect())
      << "reference feedback not all-Correct for " << a.id << ":\n"
      << core::RenderFeedback(fb->comments) << "\nreference:\n"
      << a.Reference();
}

TEST_P(AssignmentIdTest, SomeErrorVariantGetsNegativeFeedback) {
  // The all-last-variants submission is maximally wrong; the technique must
  // not report it all-Correct (it may fail to parse patterns entirely).
  const Assignment& a = assignment();
  uint64_t worst = a.generator.SpaceSize() - 1;
  auto fb = core::MatchSubmissionSource(a.spec, a.generator.Generate(worst));
  ASSERT_TRUE(fb.ok()) << fb.status().ToString();
  EXPECT_FALSE(fb->AllCorrect());
}

std::string TestNameForId(std::string id) {
  for (char& c : id) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return id;
}

std::vector<const char*> TableOneIds() {
  std::vector<const char*> ids;
  for (const TableOneRow& row : kTableOne) ids.push_back(row.id);
  return ids;
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, AssignmentIdTest, ::testing::ValuesIn(TableOneIds()),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return TestNameForId(info.param);
    });

TEST(DiscrepancyClassTest, OddStartAtOneIsFunctionallyCorrectButFlagged) {
  // Paper Sec. VI-B, Assignment 1: "Seventeen submissions initialize the
  // index to access arrays as i = 1 ... however, our technique suggests
  // i = 0" — functionally equivalent for the odd accumulation, flagged by
  // the pattern.
  const Assignment& a = KnowledgeBase::Get().assignment("assignment1");
  // Site order: init_odd, init_even, odd_start, ... — odd_start is site 2.
  std::vector<size_t> choice(a.generator.sites().size(), 0);
  choice[2] = 1;  // odd_start = "1".
  std::string source = a.generator.Instantiate(choice);

  auto unit = java::Parse(source);
  ASSERT_TRUE(unit.ok());
  auto reference = java::Parse(a.Reference());
  ASSERT_TRUE(reference.ok());
  auto expected = testing::ComputeExpectedOutputs(*reference, a.suite);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(testing::RunSuite(*unit, a.suite, *expected).passed);

  auto fb = core::MatchSubmissionSource(a.spec, source);
  ASSERT_TRUE(fb.ok());
  EXPECT_FALSE(fb->AllCorrect());
}

TEST(DiscrepancyClassTest, SwappedPrintOrderFailsTestsButFeedbackIsPositive) {
  // Paper Sec. VI-B: "Four submissions print to console in a different
  // order than expected by the functional tests, however, our technique is
  // independent of the order and provides correct feedback."
  const Assignment& a = KnowledgeBase::Get().assignment("assignment1");
  std::vector<size_t> choice(a.generator.sites().size(), 0);
  choice[12] = 1;  // print_first = "e".
  choice[13] = 1;  // print_second = "o".
  std::string source = a.generator.Instantiate(choice);

  auto unit = java::Parse(source);
  ASSERT_TRUE(unit.ok());
  auto reference = java::Parse(a.Reference());
  ASSERT_TRUE(reference.ok());
  auto expected = testing::ComputeExpectedOutputs(*reference, a.suite);
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(testing::RunSuite(*unit, a.suite, *expected).passed);

  auto fb = core::MatchSubmissionSource(a.spec, source);
  ASSERT_TRUE(fb.ok());
  EXPECT_TRUE(fb->AllCorrect()) << core::RenderFeedback(fb->comments);
}

TEST(DiscrepancyClassTest, DuplicatedFieldPositionIsCaughtSemantically) {
  // Fig. 7's class: reading two fields with the same position condition is
  // functionally invisible (both sink into e) but semantically wrong; the
  // per-position containment constraints flag it.
  const Assignment& a = KnowledgeBase::Get().assignment("rit-all-g-medals");
  std::vector<size_t> choice(a.generator.sites().size(), 0);
  choice[1] = 1;  // fn_cond = "i % 5 == 2" (duplicates the last-name slot).
  std::string source = a.generator.Instantiate(choice);

  auto unit = java::Parse(source);
  ASSERT_TRUE(unit.ok());
  auto reference = java::Parse(a.Reference());
  ASSERT_TRUE(reference.ok());
  auto expected = testing::ComputeExpectedOutputs(*reference, a.suite);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(testing::RunSuite(*unit, a.suite, *expected).passed);

  auto fb = core::MatchSubmissionSource(a.spec, source);
  ASSERT_TRUE(fb.ok());
  EXPECT_FALSE(fb->AllCorrect());
}

TEST(OlympicsFileTest, DeterministicAndWellFormed) {
  std::string f1 = testing::GenerateOlympicsFile(10, 42);
  std::string f2 = testing::GenerateOlympicsFile(10, 42);
  EXPECT_EQ(f1, f2);
  std::string f3 = testing::GenerateOlympicsFile(10, 43);
  EXPECT_NE(f1, f3);
  // 5 tokens per record.
  auto tokens = interp::TokenizeScannerInput(f1);
  EXPECT_EQ(tokens.size(), 50u);
  for (size_t i = 4; i < tokens.size(); i += 5) {
    EXPECT_EQ(tokens[i], "#");
  }
  for (size_t i = 2; i < tokens.size(); i += 5) {
    int medal = std::stoi(tokens[i]);
    EXPECT_GE(medal, 1);
    EXPECT_LE(medal, 3);
  }
}

}  // namespace
}  // namespace jfeed::kb
