// The knowledge base is text that instructors edit, so the parsers reject
// every malformed file that would otherwise grade students against a broken
// spec. Each error is one line: "<file>:<line>: <rule>".

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "kb/assignments.h"
#include "kb/embedded.h"
#include "kb/serialization.h"

namespace jfeed::kb {
namespace {

/// The parse error of assignment1's spec text with `from` replaced by `to`.
/// The spec's lines: 9 `use assign-print 2`, 10 the containment constraint
/// odd-access-is-summed (11 its `expr:`), 18 the edge constraint
/// sum-is-printed, 21 product-is-printed, 25 the final `end`.
std::string Assignment1Error(const std::string& from, const std::string& to) {
  std::string text =
      SerializeSpec(KnowledgeBase::Get().assignment("assignment1").spec);
  size_t at = text.find(from);
  if (at == std::string::npos) return "no '" + from + "' in the spec";
  auto spec = ParseSpec(text.replace(at, from.size(), to),
                        PatternLibrary::Get());
  return spec.ok() ? "accepted" : spec.status().message();
}

std::string PatternsError(const std::string& text) {
  auto patterns = ParsePatterns(text);
  return patterns.ok() ? "accepted" : patterns.status().message();
}

TEST(MalformedKbTest, ConstraintNodePastThePatternIsRejected) {
  // Accepted, this edit grades assignment1's own reference NotExpected.
  EXPECT_EQ(Assignment1Error("sum-is-printed cond-accum-add 3",
                             "sum-is-printed cond-accum-add 30"),
            "<input>:18: node 30 is not a node of pattern 'cond-accum-add' "
            "(it has 4 nodes)");
}

TEST(MalformedKbTest, NegativeConstraintNodeIsRejected) {
  EXPECT_EQ(Assignment1Error("assign-print 1 Data", "assign-print -1 Data"),
            "<input>:18: node -1 is not a node of pattern 'assign-print' "
            "(it has 2 nodes)");
}

TEST(MalformedKbTest, ContainmentWithoutExprIsRejected) {
  // Accepted, this edit tells assignment1's own reference "You should sum
  // exactly the accessed odd position".
  EXPECT_EQ(Assignment1Error(
                "      expr: c \\+= s\\[x\\]$|c = c \\+ s\\[x\\]$\n", ""),
            "<input>:10: containment constraint 'odd-access-is-summed' has "
            "no 'expr:' line");
}

TEST(MalformedKbTest, TemplateOutsideTheLiteRegexSubsetIsRejected) {
  // Bounded repetition is valid ECMAScript but outside LiteRegex, the only
  // engine templates run on, so the spec fails to load rather than grade
  // with a template that cannot run.
  EXPECT_EQ(Assignment1Error("expr: c \\+= s\\[x\\]$",
                             "expr: c \\+= s\\[x\\]{1,2}$"),
            "<input>:11: expression template does not compile as LiteRegex: "
            "c \\+= s\\[x\\]{1,2}$|c = c \\+ s\\[x\\]$");
}

TEST(MalformedKbTest, ConstraintOnAPatternTheMethodDoesNotUseIsRejected) {
  EXPECT_EQ(Assignment1Error("    use cond-accum-add 1\n", ""),
            "<input>:9: constraint 'odd-access-is-summed' names pattern "
            "'cond-accum-add' that method 'assignment1' does not use");
}

TEST(MalformedKbTest, DuplicateConstraintIdIsRejected) {
  EXPECT_EQ(Assignment1Error("edge product-is-printed", "edge sum-is-printed"),
            "<input>:21: duplicate constraint id 'sum-is-printed' in method "
            "'assignment1'");
}

TEST(MalformedKbTest, TextAfterTheSpecsEndIsRejected) {
  EXPECT_EQ(Assignment1Error("  end\nend\n", "  end\nend\n  use init-one 1\n"),
            "<input>:26: expected 'assignment <id>', found: use init-one 1");
}

TEST(MalformedKbTest, DuplicatePatternIdIsRejected) {
  EXPECT_EQ(PatternsError("pattern reset\n  node Assign\n    exact: g = 0\n"
                          "end\n"
                          "pattern reset\n  node Assign\n    exact: h = 0\n"
                          "end\n"),
            "<input>:5: duplicate pattern id 'reset'");
}

TEST(MalformedKbTest, PatternsSharingAVariableAreRejected) {
  EXPECT_EQ(PatternsError("pattern zero\n  var: v\n  node Assign\n"
                          "    exact: v = 0\nend\n"
                          "pattern one\n  var: v\n  node Assign\n"
                          "    exact: v = 1\nend\n"),
            "<input>:7: variable 'v' already belongs to pattern 'zero'; "
            "patterns may not share variables (Definition 10)");
}

TEST(MalformedKbTest, VariableNoTemplateUsesIsRejected) {
  // Accepted, a misspelt `var:` turns the intended variable into literal
  // text that no submission matches.
  EXPECT_EQ(PatternsError("pattern reset\n  var: g\n  var: h\n"
                          "  node Assign\n    exact: g = 0\nend\n"),
            "<input>:3: no template of pattern 'reset' uses variable 'h'");
}

TEST(MalformedKbTest, SpecWithoutCodeSideAssignmentIsRejected) {
  std::string text(EmbeddedAssignmentsText());
  const auto line = std::count(text.begin(), text.end(), '\n') + 1;
  text += "assignment my-course-hw3\n  method m\n  end\nend\n";
  auto kb = KnowledgeBase::Load(text, PatternLibrary::Get());
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().message(),
            "data/assignments.kb:" + std::to_string(line) +
                ": assignment 'my-course-hw3' has no generator or suite in "
                "kb/assignments.cc");
}

TEST(MalformedKbTest, CodeSideAssignmentWithoutSpecIsRejected) {
  std::string text(EmbeddedAssignmentsText());
  size_t begin = text.find("assignment mitx-polynomials\n");
  size_t end = text.find("assignment rit-all-g-medals\n");
  ASSERT_LT(begin, end);
  auto kb = KnowledgeBase::Load(text.erase(begin, end - begin),
                                PatternLibrary::Get());
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().message(),
            "data/assignments.kb: assignment 'mitx-polynomials' of "
            "kb/assignments.cc has no spec");
}

}  // namespace
}  // namespace jfeed::kb
