#include "core/pattern_matcher.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "javalang/parser.h"
#include "pdg/epdg.h"
#include "pdg/match_index.h"
#include "tests/core/paper_patterns.h"
#include "tests/testutil/legacy_matcher.h"

namespace jfeed::core {
namespace {

pdg::Epdg BuildFrom(const std::string& source) {
  // The graph copies what it needs from the unit, so the unit can go.
  auto unit = java::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  auto g = pdg::BuildEpdg(unit->methods[0]);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(*g);
}

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

constexpr const char* kFigure2b = R"(
void assignment1(int[] a) {
  int o = 0, e = 1;
  int i = 0;
  while (i < a.length) {
    if (i % 2 == 1)
      o += a[i];
    if (i % 2 == 0)
      e *= a[i];
    i++;
  }
  System.out.print(o + ", " + e);
})";

std::string ContentOf(const pdg::Epdg& g, graph::NodeId id) {
  return std::string(g.NodeAt(id).content);
}

TEST(PatternMatcherTest, PublishedEmbeddingOfOddPositionsInFigure2a) {
  // Sec. III-B gives the embedding of p_o in the Fig. 3 EPDG: u0->v0 (the
  // parameter), u1->"int i = 0", u2->"i++", u3->"i <= a.length" (approx!),
  // u4->"i % 2 == 1", u5->"odd += a[i]"; γ = {s→a, x→i}.
  pdg::Epdg g = BuildFrom(kFigure2a);
  Pattern p = testutil::OddPositionsPattern();
  std::vector<Embedding> ms = MatchPattern(p, g);
  // Fig. 2a guards *both* accumulator updates with i % 2 == 1 (that is one
  // of its bugs), so the access pattern embeds at either if: 2 embeddings.
  ASSERT_EQ(ms.size(), 2u);
  const Embedding* found = nullptr;
  for (const auto& candidate : ms) {
    if (ContentOf(g, candidate.iota.at(5)) == "odd += a[i]") {
      found = &candidate;
    }
  }
  ASSERT_NE(found, nullptr);
  const Embedding& m = *found;
  EXPECT_EQ(m.gamma, (VarBinding{{"s", "a"}, {"x", "i"}}));
  EXPECT_EQ(ContentOf(g, m.iota.at(0)), "int[] a");
  EXPECT_EQ(ContentOf(g, m.iota.at(1)), "int i = 0");
  EXPECT_EQ(ContentOf(g, m.iota.at(2)), "i++");
  EXPECT_EQ(ContentOf(g, m.iota.at(3)), "i <= a.length");
  EXPECT_EQ(ContentOf(g, m.iota.at(4)), "i % 2 == 1");
  EXPECT_EQ(ContentOf(g, m.iota.at(5)), "odd += a[i]");
  // u3 only matched the approximate expression -> marked incorrect.
  EXPECT_EQ(m.incorrect_nodes, (std::set<int>{3}));
  EXPECT_FALSE(m.IsFullyCorrect());
}

TEST(PatternMatcherTest, CorrectSubmissionMatchesFullyCorrect) {
  pdg::Epdg g = BuildFrom(kFigure2b);
  Pattern p = testutil::OddPositionsPattern();
  std::vector<Embedding> ms = MatchPattern(p, g);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_TRUE(ms[0].IsFullyCorrect());
  EXPECT_EQ(ms[0].gamma.at("x"), "i");
  EXPECT_EQ(ms[0].gamma.at("s"), "a");
  EXPECT_EQ(ContentOf(g, ms[0].iota.at(5)), "o += a[i]");
}

TEST(PatternMatcherTest, CondAccumAddEmbedding) {
  pdg::Epdg g = BuildFrom(kFigure2a);
  Pattern p = testutil::CondAccumAddPattern();
  std::vector<Embedding> ms = MatchPattern(p, g);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].gamma.at("c"), "odd");
  EXPECT_EQ(ContentOf(g, ms[0].iota.at(0)), "int odd = 0");
  EXPECT_EQ(ContentOf(g, ms[0].iota.at(3)), "odd += a[i]");
  EXPECT_TRUE(ms[0].IsFullyCorrect());
}

TEST(PatternMatcherTest, AssignPrintMatchesBothPrints) {
  pdg::Epdg g = BuildFrom(kFigure2a);
  Pattern p = testutil::AssignPrintPattern();
  std::vector<Embedding> ms = MatchPattern(p, g);
  // odd -> println(odd) and even -> println(even).
  ASSERT_EQ(ms.size(), 2u);
  std::set<std::string> printed;
  for (const auto& m : ms) printed.insert(m.gamma.at("y"));
  EXPECT_EQ(printed, (std::set<std::string>{"even", "odd"}));
}

TEST(PatternMatcherTest, MissingPatternYieldsNoEmbeddings) {
  pdg::Epdg g = BuildFrom(
      "void f(int[] a) { int s = 0; for (int i = 0; i < a.length; i++) "
      "s += a[i]; System.out.println(s); }");
  // No odd-position condition anywhere.
  Pattern p = testutil::OddPositionsPattern();
  EXPECT_TRUE(MatchPattern(p, g).empty());
}

TEST(PatternMatcherTest, EmptySearchSpaceShortCircuits) {
  pdg::Epdg g = BuildFrom("void f() { int x = 0; }");
  // Pattern requires a Cond node; the graph has none.
  Pattern p = testutil::CondAccumAddPattern();
  MatchStats stats;
  EXPECT_TRUE(MatchPattern(p, g, {}, &stats).empty());
  EXPECT_EQ(stats.steps, 0);
}

TEST(PatternMatcherTest, InjectiveIota) {
  // Two pattern nodes must not map to the same graph node.
  auto built = PatternBuilder("two-assigns", "two distinct assigns")
                   .Var("x")
                   .Var("y")
                   .Node(PatternNodeType::kAssign, "x = 0")
                   .Node(PatternNodeType::kAssign, "y = 0")
                   .Build();
  ASSERT_TRUE(built.ok());
  pdg::Epdg g = BuildFrom("void f() { int a = 0; }");
  EXPECT_TRUE(MatchPattern(*built, g).empty());
  pdg::Epdg g2 = BuildFrom("void f() { int a = 0; int b = 0; }");
  // Two graph nodes: embeddings (a,b) and (b,a).
  EXPECT_EQ(MatchPattern(*built, g2).size(), 2u);
}

TEST(PatternMatcherTest, GammaIsInjective) {
  // x and y must bind to *different* submission variables.
  auto built = PatternBuilder("swap", "two vars in one node")
                   .Var("x")
                   .Var("y")
                   .Node(PatternNodeType::kAssign, "x = y")
                   .Build();
  ASSERT_TRUE(built.ok());
  pdg::Epdg g = BuildFrom("void f(int b) { int a = b; }");
  auto ms = MatchPattern(*built, g);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].gamma.at("x"), "a");
  EXPECT_EQ(ms[0].gamma.at("y"), "b");
  // `int a = a;` style self-assignment cannot match x = y.
  pdg::Epdg g2 = BuildFrom("void f() { int a = 0; a = a; }");
  EXPECT_TRUE(MatchPattern(*built, g2).empty());
}

TEST(PatternMatcherTest, FreshGraphVariablesMayExceedPatternVariables) {
  // DESIGN.md §3: |X| ≤ |Y| (injections), not |X| = |Y|. The graph node
  // `odd += a[i]` has three variables; the pattern node `s[x]` has two
  // (both already bound when the node is matched late) or fewer.
  pdg::Epdg g = BuildFrom(kFigure2a);
  Pattern p = testutil::OddPositionsPattern();
  EXPECT_FALSE(MatchPattern(p, g).empty());
}

TEST(PatternMatcherTest, EdgeOrientationIsChecked) {
  auto built = PatternBuilder("flow", "def before use")
                   .Var("x")
                   .Node(PatternNodeType::kAssign, "x = 1")
                   .Node(PatternNodeType::kCall, "print")
                   .DataEdge(0, 1)
                   .Build();
  ASSERT_TRUE(built.ok());
  pdg::Epdg ok = BuildFrom("void f() { int a = 1; System.out.print(a); }");
  EXPECT_EQ(MatchPattern(*built, ok).size(), 1u);
  // Reversed program order: print before def, no Data edge.
  pdg::Epdg bad = BuildFrom(
      "void f() { int a = 0; System.out.print(a); a = 1; }");
  EXPECT_TRUE(MatchPattern(*built, bad).empty());
}

TEST(PatternMatcherTest, EdgeTypeIsChecked) {
  auto ctrl = PatternBuilder("guarded", "guarded increment")
                  .Var("x")
                  .Node(PatternNodeType::kCond, "")
                  .Node(PatternNodeType::kAssign, "x \\+= 1|x\\+\\+")
                  .CtrlEdge(0, 1)
                  .Build();
  ASSERT_TRUE(ctrl.ok());
  pdg::Epdg guarded = BuildFrom(
      "void f(int c) { int n = 0; if (c > 0) n++; }");
  EXPECT_EQ(MatchPattern(*ctrl, guarded).size(), 1u);
  pdg::Epdg unguarded = BuildFrom("void f(int c) { int n = 0; n++; }");
  EXPECT_TRUE(MatchPattern(*ctrl, unguarded).empty());
}

TEST(PatternMatcherTest, MaxEmbeddingsTruncates) {
  // A one-node untyped pattern matches every node in the graph.
  auto built = PatternBuilder("any", "anything")
                   .Node(PatternNodeType::kUntyped, "")
                   .Build();
  ASSERT_TRUE(built.ok());
  pdg::Epdg g = BuildFrom(kFigure2a);
  MatchOptions options;
  options.max_embeddings = 3;
  MatchStats stats;
  auto ms = MatchPattern(*built, g, options, &stats);
  EXPECT_EQ(ms.size(), 3u);
  EXPECT_TRUE(stats.truncated);
}

TEST(PatternMatcherTest, CanonicalizationPrefersCorrectEmbedding) {
  // A node whose exact and approx templates both can match the same graph
  // node under different bindings must surface the correct variant.
  auto built = PatternBuilder("init", "initialize to zero")
                   .Var("x")
                   .Node(PatternNodeType::kAssign, "x = 0", "x = \\d+")
                   .Build();
  ASSERT_TRUE(built.ok());
  pdg::Epdg g = BuildFrom("void f() { int a = 0; }");
  auto ms = MatchPattern(*built, g);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_TRUE(ms[0].IsFullyCorrect());
}

TEST(PatternMatcherTest, ApproximateOnlyMatchMarkedIncorrect) {
  auto built = PatternBuilder("init", "initialize to zero")
                   .Var("x")
                   .Node(PatternNodeType::kAssign, "x = 0", "x = \\d+")
                   .Build();
  ASSERT_TRUE(built.ok());
  pdg::Epdg g = BuildFrom("void f() { int a = 7; }");
  auto ms = MatchPattern(*built, g);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].incorrect_nodes, (std::set<int>{0}));
}

TEST(PatternMatcherTest, StatsAreAccumulated) {
  pdg::Epdg g = BuildFrom(kFigure2a);
  Pattern p = testutil::OddPositionsPattern();
  MatchStats stats;
  MatchPattern(p, g, {}, &stats);
  EXPECT_GT(stats.steps, 0);
  EXPECT_GT(stats.regex_checks, 0);
  EXPECT_FALSE(stats.truncated);
}

// ---------------------------------------------------------------------------
// Equivalence with the reference backtracker (tests/testutil), and what the
// index-driven search adds over it.

/// Serializes canonical embeddings byte-for-byte (ι, γ, incorrect marks, in
/// discovery order) so equivalence tests can require exact equality.
std::string Describe(const std::vector<Embedding>& ms) {
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

std::vector<Pattern> AllTestPatterns() {
  return {testutil::OddPositionsPattern(), testutil::CondAccumAddPattern(),
          testutil::AssignPrintPattern()};
}

TEST(MatchEngineTest, EnginesProduceIdenticalCanonicalEmbeddings) {
  for (const char* source : {kFigure2a, kFigure2b}) {
    pdg::Epdg g = BuildFrom(source);
    for (const Pattern& p : AllTestPatterns()) {
      EXPECT_EQ(Describe(testutil::LegacyMatchPattern(p, g)),
                Describe(MatchPattern(p, g)))
          << p.id;
    }
  }
}

TEST(MatchEngineTest, SharedIndexOverloadMatchesThrowawayIndex) {
  pdg::Epdg g = BuildFrom(kFigure2a);
  pdg::MatchIndex index(g);
  for (const Pattern& p : AllTestPatterns()) {
    EXPECT_EQ(Describe(MatchPattern(p, g)),
              Describe(MatchPattern(p, g, index)))
        << p.id;
  }
}

TEST(MatchEngineTest, SignaturePruningReportsAndPreservesResults) {
  pdg::Epdg g = BuildFrom(kFigure2a);
  Pattern p = testutil::OddPositionsPattern();
  MatchStats legacy_stats;
  auto legacy_ms = testutil::LegacyMatchPattern(p, g, {}, &legacy_stats);
  MatchStats indexed_stats;
  auto indexed_ms = MatchPattern(p, g, {}, &indexed_stats);
  EXPECT_EQ(Describe(legacy_ms), Describe(indexed_ms));
  // The connected pattern prunes at least one candidate, and every pruned
  // candidate is a step the backtracker never pays for.
  EXPECT_GT(indexed_stats.candidates_pruned, 0);
  EXPECT_LT(indexed_stats.steps, legacy_stats.steps);
}

TEST(MatchEngineTest, BindingIndependentTemplateChecksAreMemoized) {
  // Two variable-free nodes over a graph with repeated matching statements:
  // the same (pattern node, graph node) template check recurs under
  // different partial embeddings and must hit the memo.
  auto built = PatternBuilder("const-pair", "two literal prints")
                   .Node(PatternNodeType::kCall, "System\\.out\\.println")
                   .Node(PatternNodeType::kCall, "System\\.out\\.println")
                   .Build();
  ASSERT_TRUE(built.ok());
  pdg::Epdg g = BuildFrom(
      "void f() { System.out.println(1); System.out.println(2); "
      "System.out.println(3); }");
  MatchStats indexed_stats;
  auto indexed_ms = MatchPattern(*built, g, {}, &indexed_stats);
  MatchStats legacy_stats;
  auto legacy_ms = testutil::LegacyMatchPattern(*built, g, {}, &legacy_stats);
  EXPECT_EQ(Describe(legacy_ms), Describe(indexed_ms));
  EXPECT_GT(indexed_stats.memo_hits, 0);
  EXPECT_LT(indexed_stats.regex_checks, legacy_stats.regex_checks);
}

// ---------------------------------------------------------------------------
// Truncation paths: both limits set MatchStats::truncated and the truncated
// result is still canonical (no two embeddings share an ι), in production
// and in the reference.

void ExpectCanonical(const std::vector<Embedding>& ms) {
  std::set<std::string> iotas;
  for (const auto& m : ms) {
    std::string key;
    for (const auto& [u, v] : m.iota) {
      key += std::to_string(u) + "->" + std::to_string(v) + ",";
    }
    EXPECT_TRUE(iotas.insert(key).second)
        << "duplicate iota in canonical result: " << key;
  }
}

/// The matcher under test: production, or the reference under tests/.
enum class Engine { kIndexed, kLegacy };

std::vector<Embedding> Match(Engine engine, const Pattern& pattern,
                             const pdg::Epdg& g, const MatchOptions& options,
                             MatchStats* stats = nullptr) {
  return engine == Engine::kIndexed
             ? MatchPattern(pattern, g, options, stats)
             : testutil::LegacyMatchPattern(pattern, g, options, stats);
}

class TruncationTest : public ::testing::TestWithParam<Engine> {};

TEST_P(TruncationTest, MaxStepsSetsTruncatedAndStaysCanonical) {
  pdg::Epdg g = BuildFrom(kFigure2a);
  Pattern p = testutil::AssignPrintPattern();
  MatchOptions options;
  options.max_steps = 4;
  MatchStats stats;
  auto ms = Match(GetParam(), p, g, options, &stats);
  EXPECT_TRUE(stats.truncated);
  ExpectCanonical(ms);
}

TEST_P(TruncationTest, MaxEmbeddingsSetsTruncatedAndStaysCanonical) {
  auto built = PatternBuilder("any", "anything")
                   .Node(PatternNodeType::kUntyped, "")
                   .Build();
  ASSERT_TRUE(built.ok());
  pdg::Epdg g = BuildFrom(kFigure2a);
  MatchOptions options;
  options.max_embeddings = 3;
  MatchStats stats;
  auto ms = Match(GetParam(), *built, g, options, &stats);
  EXPECT_EQ(ms.size(), 3u);
  EXPECT_TRUE(stats.truncated);
  ExpectCanonical(ms);
}

TEST_P(TruncationTest, UntruncatedRunLeavesFlagClear) {
  pdg::Epdg g = BuildFrom(kFigure2b);
  Pattern p = testutil::OddPositionsPattern();
  MatchStats stats;
  auto ms = Match(GetParam(), p, g, {}, &stats);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(ms.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, TruncationTest,
                         ::testing::Values(Engine::kIndexed, Engine::kLegacy),
                         [](const auto& info) {
                           return info.param == Engine::kIndexed ? "Indexed"
                                                                 : "Legacy";
                         });

// ---------------------------------------------------------------------------
// Ordering heuristic on/off: the canonical embedding *set* is the same
// either way (order of discovery may differ, the collapsed set may not).

TEST(MatchEngineTest, OrderingHeuristicDoesNotChangeCanonicalSet) {
  for (const char* source : {kFigure2a, kFigure2b}) {
    pdg::Epdg g = BuildFrom(source);
    for (Engine engine : {Engine::kIndexed, Engine::kLegacy}) {
      for (const Pattern& p : AllTestPatterns()) {
        MatchOptions with;
        MatchOptions without;
        without.use_ordering_heuristic = false;
        auto set_of = [](std::vector<Embedding> ms) {
          std::set<std::string> out;
          for (auto& m : ms) {
            std::vector<Embedding> one;
            one.push_back(std::move(m));
            out.insert(Describe(one));
          }
          return out;
        };
        EXPECT_EQ(set_of(Match(engine, p, g, with)),
                  set_of(Match(engine, p, g, without)))
            << p.id;
      }
    }
  }
}

// Property sweep: every returned embedding satisfies Definition 7 — type
// compatibility, injective ι, all pattern edges present, r or r̂ matching
// under γ, and injective γ.
class EmbeddingValidityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EmbeddingValidityTest, AllEmbeddingsSatisfyDefinition7) {
  pdg::Epdg g = BuildFrom(GetParam());
  for (const Pattern& p : AllTestPatterns()) {
    for (const Embedding& m : MatchPattern(p, g)) {
      EXPECT_EQ(testutil::Definition7Violation(p, g, m), "") << p.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Submissions, EmbeddingValidityTest,
    ::testing::Values(
        R"(void assignment1(int[] a) {
             int even = 0;
             int odd = 0;
             for (int i = 0; i <= a.length; i++) {
               if (i % 2 == 1) odd += a[i];
               if (i % 2 == 1) even *= a[i];
             }
             System.out.println(odd);
             System.out.println(even);
           })",
        R"(void assignment1(int[] a) {
             int o = 0, e = 1;
             int i = 0;
             while (i < a.length) {
               if (i % 2 == 1) o += a[i];
               if (i % 2 == 0) e *= a[i];
               i++;
             }
             System.out.print(o + ", " + e);
           })",
        R"(void assignment1(int[] a) {
             int x = 0, y = 1;
             for (int i = 0; i < a.length; i++)
               if (i % 2 == 1) x *= a[i];
             for (int i = 0; i < a.length; i++)
               if (i % 2 == 0) y += a[i];
             System.out.print("O: " + x + ", E: " + y);
           })",
        R"(void f(int n) {
             int s = 0;
             for (int i = 0; i < n; i++) if (i % 2 == 1) s += i;
             System.out.println(s);
           })"));

}  // namespace
}  // namespace jfeed::core
