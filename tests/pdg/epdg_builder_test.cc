#include <gtest/gtest.h>


#include "javalang/parser.h"
#include "pdg/epdg.h"

namespace jfeed::pdg {
namespace {

Epdg BuildFrom(const std::string& source) {
  // The graph copies what it needs from the unit, so the unit can go.
  auto unit = java::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  auto g = BuildEpdg(unit->methods[0]);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(*g);
}

graph::NodeId FindNode(const Epdg& g, const std::string& content) {
  for (size_t i = 0; i < g.NodeCount(); ++i) {
    auto id = static_cast<graph::NodeId>(i);
    if (g.NodeAt(id).content == content) return id;
  }
  ADD_FAILURE() << "node not found: " << content;
  return graph::kInvalidNode;
}

TEST(EpdgBuilderTest, ParametersBecomeDeclNodes) {
  Epdg g = BuildFrom("int add(int x, int y) { return x + y; }");
  EXPECT_EQ(g.NodeCount(), 3u);
  EXPECT_EQ(g.NodeAt(0).type, NodeType::kDecl);
  EXPECT_EQ(g.NodeAt(0).content, "int x");
  EXPECT_EQ(g.NodeAt(1).type, NodeType::kDecl);
  graph::NodeId ret = FindNode(g, "return x + y");
  EXPECT_EQ(g.NodeAt(ret).type, NodeType::kReturn);
  EXPECT_TRUE(g.HasEdge(0, ret, EdgeType::kData));
  EXPECT_TRUE(g.HasEdge(1, ret, EdgeType::kData));
}

TEST(EpdgBuilderTest, MultiDeclaratorSplitsIntoNodes) {
  Epdg g = BuildFrom("void f() { int o = 0, e = 1; }");
  EXPECT_EQ(g.NodeCount(), 2u);
  EXPECT_EQ(g.NodeAt(FindNode(g, "int o = 0")).type, NodeType::kAssign);
  EXPECT_EQ(g.NodeAt(FindNode(g, "int e = 1")).type, NodeType::kAssign);
}

TEST(EpdgBuilderTest, DeclWithoutInitStillDefines) {
  Epdg g = BuildFrom("void f() { int x; x = 3; int y = x; }");
  graph::NodeId decl = FindNode(g, "int x");
  graph::NodeId assign = FindNode(g, "x = 3");
  graph::NodeId use = FindNode(g, "int y = x");
  // The plain assignment kills the declaration definition.
  EXPECT_TRUE(g.HasEdge(assign, use, EdgeType::kData));
  EXPECT_FALSE(g.HasEdge(decl, use, EdgeType::kData));
}

TEST(EpdgBuilderTest, IfWithElseMergesBothBranches) {
  Epdg g = BuildFrom(
      "void f(int c) { int x = 0; if (c > 0) x = 1; else x = 2; "
      "System.out.println(x); }");
  graph::NodeId then_def = FindNode(g, "x = 1");
  graph::NodeId else_def = FindNode(g, "x = 2");
  graph::NodeId init = FindNode(g, "int x = 0");
  graph::NodeId print = FindNode(g, "System.out.println(x)");
  EXPECT_TRUE(g.HasEdge(then_def, print, EdgeType::kData));
  EXPECT_TRUE(g.HasEdge(else_def, print, EdgeType::kData));
  // Both branches reassign x, so the initialization cannot reach the print.
  EXPECT_FALSE(g.HasEdge(init, print, EdgeType::kData));
}

TEST(EpdgBuilderTest, IfWithoutElseAssumesConditionFulfilled) {
  // Sec. III-A: Data edges are not generated "considering that loop or if
  // conditions may not be fulfilled" — the branch definition wins.
  Epdg g = BuildFrom(
      "void f(int c) { int x = 0; if (c > 0) x = 1; "
      "System.out.println(x); }");
  graph::NodeId init = FindNode(g, "int x = 0");
  graph::NodeId branch_def = FindNode(g, "x = 1");
  graph::NodeId print = FindNode(g, "System.out.println(x)");
  EXPECT_TRUE(g.HasEdge(branch_def, print, EdgeType::kData));
  EXPECT_FALSE(g.HasEdge(init, print, EdgeType::kData));
}

TEST(EpdgBuilderTest, ElseBranchIsControlledByTheCondition) {
  Epdg g = BuildFrom("void f(int c) { if (c > 0) c = 1; else c = 2; }");
  graph::NodeId cond = FindNode(g, "c > 0");
  EXPECT_TRUE(g.HasEdge(cond, FindNode(g, "c = 1"), EdgeType::kCtrl));
  EXPECT_TRUE(g.HasEdge(cond, FindNode(g, "c = 2"), EdgeType::kCtrl));
}

TEST(EpdgBuilderTest, WhileLoopSingleIterationDataFlow) {
  Epdg g = BuildFrom(
      "void f(int n) { int i = 0; while (i < n) { i++; } "
      "System.out.println(i); }");
  graph::NodeId init = FindNode(g, "int i = 0");
  graph::NodeId cond = FindNode(g, "i < n");
  graph::NodeId inc = FindNode(g, "i++");
  graph::NodeId print = FindNode(g, "System.out.println(i)");
  EXPECT_TRUE(g.HasEdge(init, cond, EdgeType::kData));
  EXPECT_TRUE(g.HasEdge(init, inc, EdgeType::kData));
  EXPECT_TRUE(g.HasEdge(cond, inc, EdgeType::kCtrl));
  // After the loop (body executed once) the increment is the live def.
  EXPECT_TRUE(g.HasEdge(inc, print, EdgeType::kData));
  EXPECT_FALSE(g.HasEdge(init, print, EdgeType::kData));
  // No back edge.
  EXPECT_FALSE(g.HasEdge(inc, cond, EdgeType::kData));
}

TEST(EpdgBuilderTest, ForLoopInitNotControlledByCondition) {
  Epdg g = BuildFrom("void f(int n) { for (int i = 0; i < n; i++) n--; }");
  graph::NodeId init = FindNode(g, "int i = 0");
  graph::NodeId cond = FindNode(g, "i < n");
  EXPECT_FALSE(g.HasEdge(cond, init, EdgeType::kCtrl));
  EXPECT_TRUE(g.HasEdge(cond, FindNode(g, "i++"), EdgeType::kCtrl));
  EXPECT_TRUE(g.HasEdge(cond, FindNode(g, "n--"), EdgeType::kCtrl));
}

TEST(EpdgBuilderTest, ForWithoutConditionGetsTrueCond) {
  Epdg g = BuildFrom("void f() { for (;;) break; }");
  graph::NodeId cond = FindNode(g, "true");
  EXPECT_EQ(g.NodeAt(cond).type, NodeType::kCond);
  graph::NodeId brk = FindNode(g, "break");
  EXPECT_EQ(g.NodeAt(brk).type, NodeType::kBreak);
  EXPECT_TRUE(g.HasEdge(cond, brk, EdgeType::kCtrl));
}

TEST(EpdgBuilderTest, NestedLoopsNestCtrl) {
  Epdg g = BuildFrom(
      "void f(int n) { for (int i = 0; i < n; i++) "
      "for (int j = 0; j < n; j++) System.out.println(j); }");
  graph::NodeId outer = FindNode(g, "i < n");
  graph::NodeId inner = FindNode(g, "j < n");
  graph::NodeId print = FindNode(g, "System.out.println(j)");
  EXPECT_TRUE(g.HasEdge(outer, inner, EdgeType::kCtrl));
  EXPECT_TRUE(g.HasEdge(inner, print, EdgeType::kCtrl));
  EXPECT_FALSE(g.HasEdge(outer, print, EdgeType::kCtrl));
  // The inner loop init runs under the outer condition.
  graph::NodeId inner_init = FindNode(g, "int j = 0");
  EXPECT_TRUE(g.HasEdge(outer, inner_init, EdgeType::kCtrl));
}

TEST(EpdgBuilderTest, ArrayElementStoreIsWeakUpdate) {
  Epdg g = BuildFrom(
      "void f(int[] a, int[] b) { b[0] = 1; b[1] = 2; "
      "System.out.println(b[0]); }");
  graph::NodeId first = FindNode(g, "b[0] = 1");
  graph::NodeId second = FindNode(g, "b[1] = 2");
  graph::NodeId print = FindNode(g, "System.out.println(b[0])");
  // Weak update: both element stores remain reaching definitions of `b`.
  EXPECT_TRUE(g.HasEdge(first, print, EdgeType::kData));
  EXPECT_TRUE(g.HasEdge(second, print, EdgeType::kData));
  // And the parameter definition also survives.
  graph::NodeId param_b = FindNode(g, "int[] b");
  EXPECT_TRUE(g.HasEdge(param_b, print, EdgeType::kData));
}

TEST(EpdgBuilderTest, CallNodesForExpressionStatements) {
  Epdg g = BuildFrom("void f(Scanner s) { s.close(); }");
  graph::NodeId close = FindNode(g, "s.close()");
  EXPECT_EQ(g.NodeAt(close).type, NodeType::kCall);
  EXPECT_TRUE(g.HasEdge(FindNode(g, "Scanner s"), close, EdgeType::kData));
}

TEST(EpdgBuilderTest, DoWhileBodyControlledByCondition) {
  Epdg g = BuildFrom("void f(int n) { int i = 0; do { i++; } while (i < n); }");
  graph::NodeId cond = FindNode(g, "i < n");
  graph::NodeId inc = FindNode(g, "i++");
  EXPECT_TRUE(g.HasEdge(cond, inc, EdgeType::kCtrl));
  // Body executes before the condition reads i: data flows body -> cond.
  EXPECT_TRUE(g.HasEdge(inc, cond, EdgeType::kData));
}

TEST(EpdgBuilderTest, ReturnNodeContent) {
  Epdg g = BuildFrom("int f() { return 42; }");
  EXPECT_EQ(g.NodeAt(FindNode(g, "return 42")).type, NodeType::kReturn);
  Epdg g2 = BuildFrom("void f() { return; }");
  EXPECT_EQ(g2.NodeAt(FindNode(g2, "return")).type, NodeType::kReturn);
}

TEST(EpdgBuilderTest, ContinueUsesBreakNodeType) {
  Epdg g = BuildFrom(
      "void f(int n) { for (int i = 0; i < n; i++) { "
      "if (i % 2 == 0) continue; System.out.println(i); } }");
  graph::NodeId cont = FindNode(g, "continue");
  EXPECT_EQ(g.NodeAt(cont).type, NodeType::kBreak);
}

TEST(EpdgBuilderTest, BuildAllEpdgsCoversEveryMethod) {
  auto unit = java::Parse(
      "int f(int x) { return x; }\n"
      "int g(int y) { return y + 1; }");
  ASSERT_TRUE(unit.ok());
  auto graphs = BuildAllEpdgs(*unit);
  ASSERT_TRUE(graphs.ok());
  ASSERT_EQ(graphs->size(), 2u);
  EXPECT_EQ((*graphs)[0].method_name(), "f");
  EXPECT_EQ((*graphs)[1].method_name(), "g");
}

// Property sweep: every Data edge source must define a variable that the
// target reads, and every Ctrl edge source must be a Cond node.
class EdgeInvariantTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EdgeInvariantTest, EdgesRespectDefinitions) {
  Epdg g = BuildFrom(GetParam());
  for (const Epdg::Edge& e : g.edges()) {
    const Node src = g.NodeAt(e.source);
    const Node dst = g.NodeAt(e.target);
    if (e.type == EdgeType::kCtrl) {
      EXPECT_EQ(src.type, NodeType::kCond)
          << "Ctrl edge from non-Cond node: " << src.content;
    } else {
      bool flows = false;
      std::set<std::string> dst_reads = dst.ReadNames();
      for (const auto& w : src.WriteNames()) {
        if (dst_reads.count(w) > 0) flows = true;
      }
      EXPECT_TRUE(flows) << "Data edge without def-use pair: " << src.content
                         << " -> " << dst.content;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, EdgeInvariantTest,
    ::testing::Values(
        "void f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; "
        "System.out.println(s); }",
        "int fact(int n) { int f = 1; for (int i = 1; i <= n; i++) f *= i; "
        "return f; }",
        "void fib(int k) { int a = 1, b = 1; while (b <= k) { int c = a + b; "
        "a = b; b = c; } System.out.println(a); }",
        "void rev(int n) { int r = 0; while (n > 0) { r = r * 10 + n % 10; "
        "n = n / 10; } System.out.println(r); }",
        "void g(int[] a, int x) { double r = 0.0; for (int i = 0; "
        "i < a.length; i++) r += a[i] * Math.pow(x, i); "
        "System.out.println(r); }"));

}  // namespace
}  // namespace jfeed::pdg
