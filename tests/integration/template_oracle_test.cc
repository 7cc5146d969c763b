// Differential oracle for template checks over the synthetic corpus: every
// (template, γ, node content) check Algorithm 1 can make on a sampled
// submission must give the same answer on LiteRegex (through
// ExprPattern::Matches) as std::regex_search on the same substitution. The
// templates are every `exact:`, `approx:` and `expr:` of the assignment's
// patterns, variants and containment constraints; γ ranges over every
// injection of the template's variables into the node's variables.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "core/expr_pattern.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "pdg/epdg.h"
#include "synth/generator.h"

namespace jfeed {
namespace {

constexpr uint64_t kSamplesPerAssignment = 100;

bool IsWordByte(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// The substitution of DESIGN.md §3b, written independently of
/// ExprPattern: regex escapes are copied verbatim, and an identifier that
/// names a template variable becomes `\b` + its escaped binding + `\b`.
std::string Substitute(const std::string& tmpl,
                       const std::set<std::string>& variables,
                       const core::VarBinding& gamma) {
  std::string out;
  size_t i = 0;
  while (i < tmpl.size()) {
    const char c = tmpl[i];
    if (c == '\\' && i + 1 < tmpl.size()) {
      out += tmpl.substr(i, 2);
      i += 2;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = i;
      while (end < tmpl.size() && IsWordByte(tmpl[end])) ++end;
      const std::string ident = tmpl.substr(i, end - i);
      if (variables.count(ident) == 0) {
        out += ident;
      } else {
        out += "\\b";
        for (char b : gamma.at(ident)) {
          if (!IsWordByte(b)) out += '\\';
          out += b;
        }
        out += "\\b";
      }
      i = end;
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

std::vector<const core::ExprPattern*> Templates(const kb::Assignment& a) {
  std::vector<const core::ExprPattern*> out;
  auto add_pattern = [&out](const core::Pattern* pattern) {
    if (pattern == nullptr) return;
    for (const auto& node : pattern->nodes) {
      out.push_back(&node.exact);
      out.push_back(&node.approx);
    }
  };
  for (const auto& method : a.spec.methods) {
    for (const auto& use : method.patterns) {
      add_pattern(use.pattern);
      for (const auto& variant : use.variants) add_pattern(variant.pattern);
    }
    for (const auto& constraint : method.constraints) {
      if (constraint.kind == core::ConstraintKind::kContainment) {
        out.push_back(&constraint.expr);
      }
    }
  }
  std::erase_if(out, [](const core::ExprPattern* t) { return t->empty(); });
  return out;
}

class TemplateOracleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TemplateOracleTest, LiteRegexAgreesWithStdRegexOnEveryCorpusCheck) {
  const auto& a = kb::KnowledgeBase::Get().assignment(GetParam());
  const auto templates = Templates(a);
  ASSERT_FALSE(templates.empty());
  std::set<std::pair<std::string, std::string>> seen;
  std::map<std::string, std::regex> reference;
  size_t matches = 0;
  for (uint64_t index :
       synth::SampleIndexes(a.generator.SpaceSize(), kSamplesPerAssignment)) {
    auto unit = java::Parse(a.generator.Generate(index));
    ASSERT_TRUE(unit.ok()) << a.id << " index " << index;
    auto graphs = pdg::BuildAllEpdgs(*unit);
    ASSERT_TRUE(graphs.ok()) << a.id << " index " << index;
    for (const auto& g : *graphs) {
      for (graph::NodeId v = 0;
           v < static_cast<graph::NodeId>(g.NodeCount()); ++v) {
        const pdg::Node node = g.NodeAt(v);
        const std::string content(node.content);
        const std::set<std::string> node_vars = node.VarNames();
        for (const core::ExprPattern* t : templates) {
          for (const auto& gamma :
               core::EnumerateInjections(t->variables(), node_vars)) {
            std::string regex_text = Substitute(t->text(), t->variables(),
                                                gamma);
            if (!seen.emplace(regex_text, content).second) continue;
            auto it = reference.find(regex_text);
            if (it == reference.end()) {
              it = reference
                       .emplace(regex_text,
                                std::regex(regex_text, std::regex::ECMAScript))
                       .first;
            }
            const bool expected = std::regex_search(content, it->second);
            matches += expected ? 1 : 0;
            EXPECT_EQ(t->Matches(content, gamma), expected)
                << a.id << " index " << index << " template " << t->text()
                << " as " << regex_text << " on " << content;
          }
        }
      }
    }
  }
  // Both answers must occur, or the comparison shows nothing.
  EXPECT_GT(matches, 0u) << a.id;
  EXPECT_GT(seen.size(), matches) << a.id;
}

INSTANTIATE_TEST_SUITE_P(
    AllAssignments, TemplateOracleTest,
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
