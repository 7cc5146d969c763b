#include "pdg/match_index.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

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

TEST(MatchIndexTest, BucketsPartitionNodesByTypeInAscendingIdOrder) {
  Epdg g = BuildFrom(
      "void f(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) "
      "{ s = s + i; } System.out.println(s); }");
  MatchIndex index(g);

  EXPECT_EQ(index.NodeCount(), g.NodeCount());
  size_t bucketed = 0;
  for (int t = 0; t < DegreeSignature::kNodeTypes; ++t) {
    const auto& bucket = index.Bucket(static_cast<NodeType>(t));
    bucketed += bucket.size();
    for (size_t i = 0; i < bucket.size(); ++i) {
      EXPECT_EQ(static_cast<int>(g.NodeAt(bucket[i]).type), t);
      if (i > 0) {
        EXPECT_LT(bucket[i - 1], bucket[i]);
      }
    }
  }
  EXPECT_EQ(bucketed, g.NodeCount());
  for (size_t i = 0; i < index.AllNodes().size(); ++i) {
    EXPECT_EQ(index.AllNodes()[i], static_cast<graph::NodeId>(i));
  }
}

TEST(MatchIndexTest, SignaturesCountEdgesPerDirectionTypeAndNeighbor) {
  // "int x" flows into the return: x-decl has one data-out edge to a
  // kReturn neighbor, the return has two data-in edges from kDecl.
  Epdg g = BuildFrom("int add(int x, int y) { return x + y; }");
  MatchIndex index(g);
  graph::NodeId decl = FindNode(g, "int x");
  graph::NodeId ret = FindNode(g, "return x + y");

  const DegreeSignature& decl_sig = index.Signature(decl);
  const int data = static_cast<int>(EdgeType::kData);
  const int ret_type = static_cast<int>(NodeType::kReturn);
  const int decl_type = static_cast<int>(NodeType::kDecl);
  EXPECT_EQ(decl_sig.total[0][data], 1);  // one outgoing data edge
  EXPECT_EQ(decl_sig.typed[0][data][ret_type], 1);
  EXPECT_EQ(decl_sig.total[1][data], 0);  // nothing flows into a parameter

  const DegreeSignature& ret_sig = index.Signature(ret);
  EXPECT_EQ(ret_sig.total[1][data], 2);  // both parameters flow in
  EXPECT_EQ(ret_sig.typed[1][data][decl_type], 2);
  EXPECT_EQ(ret_sig.total[0][data], 0);
}

TEST(MatchIndexTest, CoversIsComponentWise) {
  DegreeSignature have;
  have.AddEdge(0, 0, 2);
  have.AddEdge(0, 0, 3);
  have.AddEdge(1, 1, -1);

  DegreeSignature need;
  EXPECT_TRUE(have.Covers(need));  // empty requirement always covered

  need.AddEdge(0, 0, 2);
  EXPECT_TRUE(have.Covers(need));

  need.AddEdge(1, 1, -1);
  EXPECT_TRUE(have.Covers(need));

  // A second (0,0) edge to the *same* typed neighbor exceeds what `have`
  // holds for that component even though the totals still cover.
  DegreeSignature over;
  over.AddEdge(0, 0, 2);
  over.AddEdge(0, 0, 2);
  EXPECT_FALSE(have.Covers(over));

  // More total edges than available in a direction/type pair.
  DegreeSignature too_many;
  too_many.AddEdge(1, 1, -1);
  too_many.AddEdge(1, 1, -1);
  EXPECT_FALSE(have.Covers(too_many));
}

TEST(MatchIndexTest, HashedHasEdgeAgreesWithAdjacencyScan) {
  Epdg g = BuildFrom(
      "void f(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) "
      "{ if (i % 2 == 1) { s = s + i; } } System.out.println(s); }");
  // Cross-check the CSR row probe against a scan of the flat edge list for
  // every (source, target, type) triple.
  for (size_t s = 0; s < g.NodeCount(); ++s) {
    for (size_t t = 0; t < g.NodeCount(); ++t) {
      for (EdgeType type : {EdgeType::kCtrl, EdgeType::kData}) {
        bool scan = false;
        for (const Epdg::Edge& e : g.edges()) {
          if (e.source == static_cast<int>(s) &&
              e.target == static_cast<int>(t) && e.type == type) scan = true;
        }
        EXPECT_EQ(g.HasEdge(static_cast<int>(s), static_cast<int>(t), type),
                  scan)
            << s << "->" << t;
      }
    }
  }
}

}  // namespace
}  // namespace jfeed::pdg
