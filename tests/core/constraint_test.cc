#include "core/constraint.h"

#include <gtest/gtest.h>

#include "javalang/parser.h"
#include "pdg/epdg.h"
#include "tests/core/paper_patterns.h"

namespace jfeed::core {
namespace {

constexpr const char* kFigure2a = R"(
void assignment1(int[] a) {
  int even = 0;
  int odd = 0;
  for (int i = 0; i <= a.length; i++) {
    if (i % 2 == 1)
      odd += a[i];
    if (i % 2 == 1)
      even *= a[i];
  }
  System.out.println(odd);
  System.out.println(even);
})";

class ConstraintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto unit = java::Parse(kFigure2a);
    ASSERT_TRUE(unit.ok());
    auto g = pdg::BuildEpdg(unit->methods[0]);
    ASSERT_TRUE(g.ok());
    epdg_ = std::move(*g);
    odd_ = testutil::OddPositionsPattern();
    accum_ = testutil::CondAccumAddPattern();
    print_ = testutil::AssignPrintPattern();
    sets_[odd_.id] = MatchPattern(odd_, epdg_);
    sets_[accum_.id] = MatchPattern(accum_, epdg_);
    sets_[print_.id] = MatchPattern(print_, epdg_);
  }

  pdg::Epdg epdg_;
  Pattern odd_, accum_, print_;
  EmbeddingSets sets_;
};

TEST_F(ConstraintTest, EqualityConstraintFromThePaper) {
  // (p_o, u5, p_a, u3): the accessed odd position is the cumulatively
  // added expression — both map to "odd += a[i]".
  Constraint c = MakeEqualityConstraint("eq-odd-add", odd_.id, 5, accum_.id,
                                        3);
  EXPECT_EQ(CheckConstraint(c, epdg_, sets_, {}),
            ConstraintOutcome::kFulfilled);
}

TEST_F(ConstraintTest, EqualityConstraintViolatedWhenNodesDiffer) {
  // p_o.u1 (int i = 0) can never equal p_a.u3 (odd += a[i]).
  Constraint c = MakeEqualityConstraint("eq-bad", odd_.id, 1, accum_.id, 3);
  EXPECT_EQ(CheckConstraint(c, epdg_, sets_, {}),
            ConstraintOutcome::kViolated);
}

TEST_F(ConstraintTest, EdgeConstraintFromThePaper) {
  // (p_a, u3, p_p, u1, Data): the accumulated variable flows into the print.
  Constraint c = MakeEdgeConstraint("edge-add-print", accum_.id, 3,
                                    print_.id, 1, pdg::EdgeType::kData);
  EXPECT_EQ(CheckConstraint(c, epdg_, sets_, {}),
            ConstraintOutcome::kFulfilled);
}

TEST_F(ConstraintTest, EdgeConstraintWrongTypeViolated) {
  // There is no Ctrl edge from the accumulator update to the print.
  Constraint c = MakeEdgeConstraint("edge-ctrl", accum_.id, 3, print_.id, 1,
                                    pdg::EdgeType::kCtrl);
  EXPECT_EQ(CheckConstraint(c, epdg_, sets_, {}),
            ConstraintOutcome::kViolated);
}

TEST_F(ConstraintTest, ContainmentConstraintFromThePaper) {
  // (p_o, u5, "c += s[x]", {p_a}): the odd-access node is exactly the
  // accumulator update, with c from the supporting pattern.
  std::set<std::string> vars = {"x", "s", "c"};
  auto c = MakeContainmentConstraint("contain-add", odd_.id, 5,
                                     "c \\+= s\\[x\\]", vars, {accum_.id});
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(CheckConstraint(*c, epdg_, sets_, {}),
            ConstraintOutcome::kFulfilled);
}

TEST_F(ConstraintTest, ContainmentConstraintViolated) {
  std::set<std::string> vars = {"x", "s", "c"};
  auto c = MakeContainmentConstraint("contain-mul", odd_.id, 5,
                                     "c \\*= s\\[x\\]", vars, {accum_.id});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(CheckConstraint(*c, epdg_, sets_, {}),
            ConstraintOutcome::kViolated);
}

TEST_F(ConstraintTest, NotExpectedPatternPropagates) {
  Constraint c = MakeEqualityConstraint("eq", odd_.id, 5, accum_.id, 3);
  EXPECT_EQ(CheckConstraint(c, epdg_, sets_, {odd_.id}),
            ConstraintOutcome::kNotApplicable);
  EXPECT_EQ(CheckConstraint(c, epdg_, sets_, {accum_.id}),
            ConstraintOutcome::kNotApplicable);
}

TEST_F(ConstraintTest, MissingEmbeddingsAreNotApplicable) {
  EmbeddingSets empty_sets;
  Constraint c = MakeEqualityConstraint("eq", odd_.id, 5, accum_.id, 3);
  EXPECT_EQ(CheckConstraint(c, epdg_, empty_sets, {}),
            ConstraintOutcome::kNotApplicable);
}

TEST_F(ConstraintTest, WitnessCarriesMergedBindings) {
  Constraint c = MakeEdgeConstraint("edge-add-print", accum_.id, 3,
                                    print_.id, 1, pdg::EdgeType::kData,
                                    "{c} flows into the printed value {y}");
  VarBinding witness = ConstraintWitness(c, epdg_, sets_);
  EXPECT_EQ(witness.at("c"), "odd");
  EXPECT_EQ(witness.at("y"), "odd");
  EXPECT_EQ(InstantiateFeedback(c.feedback_ok, witness),
            "odd flows into the printed value odd");
}

TEST_F(ConstraintTest, ReferencedPatterns) {
  Constraint eq = MakeEqualityConstraint("eq", "a", 0, "b", 0);
  EXPECT_EQ(eq.ReferencedPatterns(), (std::vector<std::string>{"a", "b"}));
  auto contain = MakeContainmentConstraint("c", "main", 0, "x", {"x"},
                                           {"s1", "s2"});
  ASSERT_TRUE(contain.ok());
  EXPECT_EQ(contain->ReferencedPatterns(),
            (std::vector<std::string>{"main", "s1", "s2"}));
}

}  // namespace
}  // namespace jfeed::core
