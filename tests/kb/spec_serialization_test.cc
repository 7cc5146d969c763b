// Round-trip tests for the assignment-specification text format.

#include <gtest/gtest.h>

#include "core/feedback.h"
#include "core/submission_matcher.h"
#include "kb/assignments.h"
#include "kb/serialization.h"

namespace jfeed::kb {
namespace {

TEST(SpecSerializationTest, RoundTripIsAFixedPointForAllAssignments) {
  const auto& kb = KnowledgeBase::Get();
  for (const auto& id : kb.assignment_ids()) {
    const core::AssignmentSpec& original = kb.assignment(id).spec;
    std::string first = SerializeSpec(original);
    auto parsed = ParseSpec(first, PatternLibrary::Get());
    ASSERT_TRUE(parsed.ok()) << id << ": " << parsed.status().ToString()
                             << "\n" << first;
    EXPECT_EQ(SerializeSpec(*parsed), first) << id;
    EXPECT_EQ(parsed->PatternCount(), original.PatternCount()) << id;
    EXPECT_EQ(parsed->ConstraintCount(), original.ConstraintCount()) << id;
  }
}

TEST(SpecSerializationTest, ParsedSpecGradesIdentically) {
  // A spec serialized and parsed again must reproduce the exact feedback of
  // the loaded one — both on the reference and on an erroneous variant.
  const auto& assignment = KnowledgeBase::Get().assignment("assignment1");
  auto parsed = ParseSpec(SerializeSpec(assignment.spec),
                          PatternLibrary::Get());
  ASSERT_TRUE(parsed.ok());
  for (uint64_t index : {uint64_t{0}, uint64_t{12345}}) {
    std::string source = assignment.generator.Generate(index);
    auto original = core::MatchSubmissionSource(assignment.spec, source);
    auto reparsed = core::MatchSubmissionSource(*parsed, source);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(original->score, reparsed->score) << index;
    ASSERT_EQ(original->comments.size(), reparsed->comments.size());
    for (size_t i = 0; i < original->comments.size(); ++i) {
      EXPECT_EQ(original->comments[i].kind, reparsed->comments[i].kind);
      EXPECT_EQ(original->comments[i].message,
                reparsed->comments[i].message);
    }
  }
}

TEST(SpecSerializationTest, HandAuthoredSpec) {
  const char* kText = R"(
assignment my-course-hw3
  title: Sum the odd positions
  method sumOdd
    use odd-positions 1
    use cond-accum-add 1
    use assign-print 1
    constraint equality tie odd-positions 5 cond-accum-add 3
      ok: the accessed position is the accumulated one
      fail: accumulate exactly the accessed position
    constraint edge flows cond-accum-add 3 assign-print 1 Data
    constraint containment shape odd-positions 5 cond-accum-add
      expr: c \+= s\[x\]$
  end
end
)";
  auto spec = ParseSpec(kText, PatternLibrary::Get());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->id, "my-course-hw3");
  ASSERT_EQ(spec->methods.size(), 1u);
  EXPECT_EQ(spec->methods[0].patterns.size(), 3u);
  EXPECT_EQ(spec->methods[0].constraints.size(), 3u);
  EXPECT_EQ(spec->methods[0].constraints[2].kind,
            core::ConstraintKind::kContainment);
}

TEST(SpecSerializationTest, UnknownPatternRejected) {
  auto spec = ParseSpec(
      "assignment a\n  method m\n    use no-such-pattern 1\n  end\nend\n",
      PatternLibrary::Get());
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

TEST(SpecSerializationTest, MalformedInputRejected) {
  const auto& lib = PatternLibrary::Get();
  EXPECT_FALSE(ParseSpec("nonsense\n", lib).ok());
  EXPECT_FALSE(ParseSpec("assignment a\n  use x 1\n", lib).ok());  // No method.
  EXPECT_FALSE(ParseSpec("assignment a\n  method m\n", lib).ok());  // No end.
  EXPECT_FALSE(ParseSpec(
                   "assignment a\n  method m\n    constraint edge e "
                   "odd-positions 5 assign-print 1 Sideways\n  end\nend\n",
                   lib)
                   .ok());
}

}  // namespace
}  // namespace jfeed::kb
