#include "kb/serialization.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "kb/assignments.h"
#include "kb/patterns.h"
#include "support/strings.h"

namespace jfeed::kb {
namespace {

/// data/<name> without its `#` comment lines and without the blank lines
/// that separate its header comment from the first block.
std::string DataFile(const std::string& name) {
  std::ifstream in(std::string(JFEED_KB_DATA_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot read data/" << name;
  std::string out, line;
  while (std::getline(in, line)) {
    if (StartsWith(Trim(line), "#") || (out.empty() && line.empty())) continue;
    out += line + "\n";
  }
  return out;
}

TEST(SerializationTest, RoundTripSimplePattern) {
  const core::Pattern& original = PatternLibrary::Get().at("init-zero");
  std::string text = SerializePattern(original);
  auto parsed = ParsePattern(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  EXPECT_EQ(parsed->id, original.id);
  EXPECT_EQ(parsed->name, original.name);
  EXPECT_EQ(parsed->nodes.size(), original.nodes.size());
  EXPECT_EQ(parsed->Variables(), original.Variables());
  EXPECT_EQ(parsed->feedback_present, original.feedback_present);
  EXPECT_EQ(parsed->feedback_missing, original.feedback_missing);
}

TEST(SerializationTest, RoundTripIsAFixedPointForEveryLibraryPattern) {
  // Property: serialize(parse(serialize(p))) == serialize(p) for all 24.
  for (const auto& id : PatternLibrary::Get().ids()) {
    const core::Pattern& original = PatternLibrary::Get().at(id);
    std::string first = SerializePattern(original);
    auto parsed = ParsePattern(first);
    ASSERT_TRUE(parsed.ok()) << id << ": " << parsed.status().ToString();
    EXPECT_EQ(SerializePattern(*parsed), first) << id;
    EXPECT_TRUE(parsed->Validate().ok()) << id;
    EXPECT_EQ(parsed->nodes.size(), original.nodes.size()) << id;
    EXPECT_EQ(parsed->edges.size(), original.edges.size()) << id;
  }
}

TEST(SerializationTest, ParsedTemplatesStillMatch) {
  const core::Pattern& original = PatternLibrary::Get().at("odd-positions");
  auto parsed = ParsePattern(SerializePattern(original));
  ASSERT_TRUE(parsed.ok());
  // Node 3 is the bound check: exact on <, approximate on <=.
  EXPECT_TRUE(parsed->nodes[3].exact.Matches("i < a.length",
                                             {{"x", "i"}, {"s", "a"}}));
  EXPECT_FALSE(parsed->nodes[3].exact.Matches("i <= a.length",
                                              {{"x", "i"}, {"s", "a"}}));
  EXPECT_TRUE(parsed->nodes[3].approx.Matches("i <= a.length",
                                              {{"x", "i"}, {"s", "a"}}));
}

TEST(SerializationTest, ExportContainsAllTwentyFour) {
  // data/patterns.kb is the published form of the library.
  auto all = ParsePatterns(DataFile("patterns.kb"));
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), 24u);
}

// The knowledge base the binary uses, serialized, is byte for byte the
// data files (comments aside): nothing is lost or added on the way in.
// The knowledge base the binaries use serializes byte for byte to the data
// files it is parsed from: the parsers drop and add nothing.
TEST(CanonicalFormTest, PatternLibrarySerializesToTheDataFile) {
  const PatternLibrary& library = PatternLibrary::Get();
  std::string text;
  for (const auto& id : library.ids()) {
    text += (text.empty() ? "" : "\n") + SerializePattern(library.at(id));
  }
  EXPECT_EQ(text, DataFile("patterns.kb"));
}

TEST(CanonicalFormTest, AssignmentSpecsSerializeToTheDataFile) {
  const KnowledgeBase& kb = KnowledgeBase::Get();
  std::string text;
  for (const auto& id : kb.assignment_ids()) {
    text += SerializeSpec(kb.assignment(id).spec) + "\n";
  }
  EXPECT_EQ(text, DataFile("assignments.kb"));
}

TEST(SerializationTest, CommentsAndBlankLinesIgnored) {
  const char* kText = R"(
# a comment
pattern tiny
  name: Tiny test pattern
  var: v

  # node follows
  node Assign
    exact: v = 0
end
)";
  auto parsed = ParsePattern(kText);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, "tiny");
  EXPECT_EQ(parsed->nodes.size(), 1u);
}

TEST(SerializationTest, HandAuthoredPatternWorks) {
  const char* kText = R"(
pattern guarded-reset
  name: Reset under a guard
  var: g
  node Cond
    exact: g < 0
  node Assign
    exact: g = 0
    correct: {g} is reset to 0
  edge Ctrl 0 1
  present: You reset {g} when it goes negative
  missing: The guarded reset is missing
end
)";
  auto parsed = ParsePattern(kText);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->edges.size(), 1u);
  EXPECT_EQ(parsed->edges[0].type, pdg::EdgeType::kCtrl);
  EXPECT_TRUE(parsed->nodes[0].exact.Matches("g < 0", {{"g", "g"}}));
}

TEST(SerializationTest, ErrorsAreReportedWithLineNumbers) {
  auto missing_end = ParsePattern("pattern p\n  name: x\n");
  EXPECT_FALSE(missing_end.ok());
  EXPECT_NE(missing_end.status().message().find("missing 'end'"),
            std::string::npos);

  auto bad_type = ParsePattern("pattern p\n  node Banana\nend\n");
  EXPECT_FALSE(bad_type.ok());
  EXPECT_NE(bad_type.status().message().find("Banana"), std::string::npos);

  auto bad_edge = ParsePattern(
      "pattern p\n  node Assign\n    exact: x\n  edge Sideways 0 1\nend\n");
  EXPECT_FALSE(bad_edge.ok());

  auto orphan_field = ParsePattern("pattern p\n  exact: x\nend\n");
  EXPECT_FALSE(orphan_field.ok());
  EXPECT_NE(orphan_field.status().message().find("before any node"),
            std::string::npos);

  auto unknown = ParsePattern("pattern p\n  flavor: vanilla\nend\n");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown directive"),
            std::string::npos);
}

TEST(SerializationTest, EdgeOutOfRangeRejectedByValidation) {
  auto parsed = ParsePattern(
      "pattern p\n  node Assign\n    exact: x\n  edge Data 0 7\nend\n");
  EXPECT_FALSE(parsed.ok());
}

TEST(SerializationTest, InvalidTemplateRejected) {
  auto parsed = ParsePattern(
      "pattern p\n  var: v\n  node Assign\n    exact: v ([\nend\n");
  EXPECT_FALSE(parsed.ok());
}

}  // namespace
}  // namespace jfeed::kb
