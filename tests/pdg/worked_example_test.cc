// Reproduces the paper's worked example: the extended program dependence
// graph of the Fig. 2a submission (Fig. 3), including the Data/Ctrl edge
// conventions of Sec. III-A.

#include <gtest/gtest.h>

#include "javalang/parser.h"
#include "pdg/epdg.h"

namespace jfeed::pdg {
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

class WorkedExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto unit = java::Parse(kFigure2a);
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();
    auto g = BuildEpdg(unit->methods[0]);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    epdg_ = std::move(*g);
  }

  /// Finds the unique node with the given content; fails the test otherwise.
  graph::NodeId Find(const std::string& content) {
    graph::NodeId found = graph::kInvalidNode;
    for (size_t i = 0; i < epdg_.NodeCount(); ++i) {
      auto id = static_cast<graph::NodeId>(i);
      if (epdg_.NodeAt(id).content == content) {
        EXPECT_EQ(found, graph::kInvalidNode)
            << "content not unique: " << content;
        found = id;
      }
    }
    EXPECT_NE(found, graph::kInvalidNode) << "content not found: " << content;
    return found;
  }

  /// Finds the i-th node (0-based) with the given content.
  graph::NodeId FindNth(const std::string& content, int n) {
    int seen = 0;
    for (size_t i = 0; i < epdg_.NodeCount(); ++i) {
      auto id = static_cast<graph::NodeId>(i);
      if (epdg_.NodeAt(id).content == content) {
        if (seen == n) return id;
        ++seen;
      }
    }
    ADD_FAILURE() << "occurrence " << n << " of '" << content
                  << "' not found";
    return graph::kInvalidNode;
  }

  Epdg epdg_;
};

TEST_F(WorkedExampleTest, HasTwelveNodes) {
  // Fig. 3 shows v0..v11: the parameter Decl, four assignments, the loop
  // condition, two if conditions, two accumulator updates, two prints.
  EXPECT_EQ(epdg_.NodeCount(), 12u);
}

TEST_F(WorkedExampleTest, NodeTypesMatchDefinition1) {
  EXPECT_EQ(epdg_.NodeAt(Find("int[] a")).type, NodeType::kDecl);
  EXPECT_EQ(epdg_.NodeAt(Find("int even = 0")).type, NodeType::kAssign);
  EXPECT_EQ(epdg_.NodeAt(Find("int odd = 0")).type, NodeType::kAssign);
  EXPECT_EQ(epdg_.NodeAt(Find("int i = 0")).type, NodeType::kAssign);
  EXPECT_EQ(epdg_.NodeAt(Find("i <= a.length")).type, NodeType::kCond);
  EXPECT_EQ(epdg_.NodeAt(Find("i++")).type, NodeType::kAssign);
  EXPECT_EQ(epdg_.NodeAt(FindNth("i % 2 == 1", 0)).type, NodeType::kCond);
  EXPECT_EQ(epdg_.NodeAt(FindNth("i % 2 == 1", 1)).type, NodeType::kCond);
  EXPECT_EQ(epdg_.NodeAt(Find("odd += a[i]")).type, NodeType::kAssign);
  EXPECT_EQ(epdg_.NodeAt(Find("even *= a[i]")).type, NodeType::kAssign);
  EXPECT_EQ(epdg_.NodeAt(Find("System.out.println(odd)")).type,
            NodeType::kCall);
  EXPECT_EQ(epdg_.NodeAt(Find("System.out.println(even)")).type,
            NodeType::kCall);
}

TEST_F(WorkedExampleTest, CtrlEdgesAreTransitiveReduced) {
  graph::NodeId loop = Find("i <= a.length");
  graph::NodeId if1 = FindNth("i % 2 == 1", 0);
  graph::NodeId if2 = FindNth("i % 2 == 1", 1);
  graph::NodeId odd_update = Find("odd += a[i]");
  graph::NodeId even_update = Find("even *= a[i]");
  graph::NodeId inc = Find("i++");

  // The loop condition directly controls the two ifs and the update.
  EXPECT_TRUE(epdg_.HasEdge(loop, if1, EdgeType::kCtrl));
  EXPECT_TRUE(epdg_.HasEdge(loop, if2, EdgeType::kCtrl));
  EXPECT_TRUE(epdg_.HasEdge(loop, inc, EdgeType::kCtrl));
  // Each if directly controls its body.
  EXPECT_TRUE(epdg_.HasEdge(if1, odd_update, EdgeType::kCtrl));
  EXPECT_TRUE(epdg_.HasEdge(if2, even_update, EdgeType::kCtrl));
  // Transitive edges (loop -> body of the ifs) must not exist — the paper
  // removes them ("the resulting graph can be overloaded with redundant
  // relationships").
  EXPECT_FALSE(epdg_.HasEdge(loop, odd_update, EdgeType::kCtrl));
  EXPECT_FALSE(epdg_.HasEdge(loop, even_update, EdgeType::kCtrl));
  // Exactly five Ctrl edges total.
  EXPECT_EQ(epdg_.CountEdges(EdgeType::kCtrl), 5u);
}

TEST_F(WorkedExampleTest, DataEdgesFollowReachingDefinitions) {
  graph::NodeId param = Find("int[] a");
  graph::NodeId even_init = Find("int even = 0");
  graph::NodeId odd_init = Find("int odd = 0");
  graph::NodeId i_init = Find("int i = 0");
  graph::NodeId loop = Find("i <= a.length");
  graph::NodeId if1 = FindNth("i % 2 == 1", 0);
  graph::NodeId if2 = FindNth("i % 2 == 1", 1);
  graph::NodeId odd_update = Find("odd += a[i]");
  graph::NodeId even_update = Find("even *= a[i]");
  graph::NodeId inc = Find("i++");
  graph::NodeId print_odd = Find("System.out.println(odd)");
  graph::NodeId print_even = Find("System.out.println(even)");

  // The array parameter flows to every reader of `a`.
  EXPECT_TRUE(epdg_.HasEdge(param, loop, EdgeType::kData));
  EXPECT_TRUE(epdg_.HasEdge(param, odd_update, EdgeType::kData));
  EXPECT_TRUE(epdg_.HasEdge(param, even_update, EdgeType::kData));
  // The index initialization flows to all readers of `i` in the first
  // (and only, per the one-iteration convention) iteration.
  EXPECT_TRUE(epdg_.HasEdge(i_init, loop, EdgeType::kData));
  EXPECT_TRUE(epdg_.HasEdge(i_init, if1, EdgeType::kData));
  EXPECT_TRUE(epdg_.HasEdge(i_init, if2, EdgeType::kData));
  EXPECT_TRUE(epdg_.HasEdge(i_init, odd_update, EdgeType::kData));
  EXPECT_TRUE(epdg_.HasEdge(i_init, even_update, EdgeType::kData));
  EXPECT_TRUE(epdg_.HasEdge(i_init, inc, EdgeType::kData));
  // Accumulator initializations flow into the compound updates.
  EXPECT_TRUE(epdg_.HasEdge(odd_init, odd_update, EdgeType::kData));
  EXPECT_TRUE(epdg_.HasEdge(even_init, even_update, EdgeType::kData));
  // The updates (conditions assumed fulfilled) reach the prints.
  EXPECT_TRUE(epdg_.HasEdge(odd_update, print_odd, EdgeType::kData));
  EXPECT_TRUE(epdg_.HasEdge(even_update, print_even, EdgeType::kData));
}

TEST_F(WorkedExampleTest, ExcludedDataEdgesAbsent) {
  graph::NodeId odd_init = Find("int odd = 0");
  graph::NodeId i_init = Find("int i = 0");
  graph::NodeId inc = Find("i++");
  graph::NodeId loop = Find("i <= a.length");
  graph::NodeId if1 = FindNth("i % 2 == 1", 0);
  graph::NodeId print_odd = Find("System.out.println(odd)");

  // Paper, Sec. III-A: no Data edge v1 (odd = 0) -> println(odd); that edge
  // would only exist on the loop-not-entered path, which is excluded.
  EXPECT_FALSE(epdg_.HasEdge(odd_init, print_odd, EdgeType::kData));
  // No back edges: i++ feeding the loop condition or the if conditions
  // would require a second iteration.
  EXPECT_FALSE(epdg_.HasEdge(inc, loop, EdgeType::kData));
  EXPECT_FALSE(epdg_.HasEdge(inc, if1, EdgeType::kData));
  // i++ must not retroactively shadow the init's edges.
  EXPECT_TRUE(epdg_.HasEdge(i_init, loop, EdgeType::kData));
}

TEST_F(WorkedExampleTest, VariableSetsOnNodes) {
  const Node odd_update = epdg_.NodeAt(Find("odd += a[i]"));
  EXPECT_EQ(odd_update.VarNames(), (std::set<std::string>{"a", "i", "odd"}));
  EXPECT_EQ(odd_update.WriteNames(), (std::set<std::string>{"odd"}));
  const Node print_odd = epdg_.NodeAt(Find("System.out.println(odd)"));
  EXPECT_EQ(print_odd.VarNames(), (std::set<std::string>{"odd"}));
}

TEST_F(WorkedExampleTest, DotExportMentionsEveryNode) {
  std::string dot = epdg_.ToDot();
  EXPECT_NE(dot.find("odd += a[i]"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

}  // namespace
}  // namespace jfeed::pdg
