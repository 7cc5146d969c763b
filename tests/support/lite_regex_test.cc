#include "support/lite_regex.h"

#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

namespace jfeed {
namespace {

/// Oracle check: LiteRegex must agree with std::regex (ECMAScript,
/// regex_search semantics) on every pattern it accepts.
void ExpectAgreesWithStdRegex(const std::string& pattern,
                              const std::vector<std::string>& texts) {
  LiteRegex lite;
  ASSERT_TRUE(LiteRegex::Compile(pattern, &lite)) << pattern;
  std::regex re(pattern, std::regex::ECMAScript);
  LiteRegexScratch scratch;
  for (const auto& text : texts) {
    EXPECT_EQ(lite.Search(text, &scratch), std::regex_search(text, re))
        << "pattern=" << pattern << " text=" << text;
  }
}

const std::vector<std::string>& JavaContents() {
  static const std::vector<std::string> texts = {
      "",
      "x",
      "int i = 0",
      "i = i + 1",
      "i++",
      "++i",
      "odd += a[i]",
      "i < s.length",
      "i <= s.length",
      "int even = 0",
      "return total",
      "System.out.println(medals)",
      "x = -5",
      "x = 12",
      "count = count + 2",
      "for (int j = 0; j < n; j++)",
      "a[i] = a[i] + 1",
      "s.length",
      "interval",  // 'i' inside a word: \b must reject.
      "int x=0",
  };
  return texts;
}

TEST(LiteRegexTest, LiteralsAndEscapes) {
  ExpectAgreesWithStdRegex("i \\+= 1", JavaContents());
  ExpectAgreesWithStdRegex("s\\[x\\]", JavaContents());
  ExpectAgreesWithStdRegex("x\\+\\+|\\+\\+x|x \\+= 1|x = x \\+ 1",
                           JavaContents());
  ExpectAgreesWithStdRegex("i < s\\.length", JavaContents());
  ExpectAgreesWithStdRegex("\\bi\\b", JavaContents());
  ExpectAgreesWithStdRegex("\\bi\\b \\+= \\bs\\b", JavaContents());
}

TEST(LiteRegexTest, ClassesQuantifiersAnchors) {
  ExpectAgreesWithStdRegex("x = -?\\d+", JavaContents());
  ExpectAgreesWithStdRegex("[a-z]+ = \\d+", JavaContents());
  ExpectAgreesWithStdRegex("^int", JavaContents());
  ExpectAgreesWithStdRegex("length$", JavaContents());
  ExpectAgreesWithStdRegex("i (<|<=) s\\.length", JavaContents());
  ExpectAgreesWithStdRegex("[^0-9]+", JavaContents());
  ExpectAgreesWithStdRegex("a*b?c+", {"", "b", "c", "ac", "aaacc", "ab",
                                      "abc", "xyz"});
  ExpectAgreesWithStdRegex("\\w+\\s*=\\s*\\w+", JavaContents());
  ExpectAgreesWithStdRegex("(foo|bar)+baz", {"foobaz", "barbaz", "baz",
                                             "foobarbaz", "fooba"});
  ExpectAgreesWithStdRegex("x(?:yz)?w", {"xw", "xyzw", "xyz", "xyw"});
}

TEST(LiteRegexTest, EmptyAndDegenerate) {
  ExpectAgreesWithStdRegex("", JavaContents());
  ExpectAgreesWithStdRegex("a|", JavaContents());
  ExpectAgreesWithStdRegex("(a|)*b", {"b", "aab", "c", ""});
  ExpectAgreesWithStdRegex("()", {"", "x"});
}

TEST(LiteRegexTest, DotDoesNotCrossLineTerminators) {
  ExpectAgreesWithStdRegex("a.b", {"axb", "a\nb", "ab", "a b"});
}

TEST(LiteRegexTest, UnsupportedSyntaxFallsBack) {
  LiteRegex lite;
  EXPECT_FALSE(LiteRegex::Compile("(?=x)", &lite));    // Lookahead.
  EXPECT_FALSE(LiteRegex::Compile("(a)\\1", &lite));   // Backreference.
  EXPECT_FALSE(LiteRegex::Compile("\\x41", &lite));    // Hex escape.
  EXPECT_FALSE(LiteRegex::Compile("\\u0041", &lite));  // Unicode escape.
  EXPECT_FALSE(LiteRegex::Compile("(a", &lite));       // Unbalanced group.
  EXPECT_FALSE(LiteRegex::Compile("[a", &lite));       // Unterminated class.
  EXPECT_FALSE(LiteRegex::Compile("*a", &lite));       // Dangling quantifier.
}

TEST(LiteRegexTest, UnescapedBracesFailToCompile) {
  // ECMAScript reads a{2} as "aa"; compiling the braces as literals would
  // match the text "a{2}" instead.
  LiteRegex lite;
  EXPECT_FALSE(LiteRegex::Compile("a{2}", &lite));
  EXPECT_FALSE(LiteRegex::Compile("a{1,2}", &lite));
  EXPECT_FALSE(LiteRegex::Compile("{", &lite));
  EXPECT_FALSE(LiteRegex::Compile("a}", &lite));
  ExpectAgreesWithStdRegex("a\\{2\\}", {"a{2}", "aa", "a{2", "xa{2}y"});
  ExpectAgreesWithStdRegex("[{}]", {"{", "}", "x", ""});
}

TEST(LiteRegexTest, SteadyStateSearchTouchesOnlyScratch) {
  LiteRegex lite;
  ASSERT_TRUE(LiteRegex::Compile("\\bi\\b (<|<=) \\bs\\b\\.length", &lite));
  LiteRegexScratch scratch;
  // Warm the scratch, then hammer it; the scratch vectors must not shrink
  // or thrash (sizes are monotone in program size).
  EXPECT_TRUE(lite.Search("i < s.length", &scratch));
  size_t mark_size = scratch.mark.size();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(lite.Search("i < s.length", &scratch));
    EXPECT_FALSE(lite.Search("j < t.length", &scratch));
  }
  EXPECT_EQ(scratch.mark.size(), mark_size);
}

TEST(LiteRegexTest, SubstitutedTemplateShapes) {
  // The exact shapes ExprPattern emits: escaped variable names wrapped in
  // word boundaries, spliced between template fragments.
  ExpectAgreesWithStdRegex("\\bodd\\b \\+= \\ba\\b\\[\\bi\\b\\]",
                           JavaContents());
  ExpectAgreesWithStdRegex("\\bi\\b % 2 == 1", JavaContents());
  ExpectAgreesWithStdRegex("\\bcount\\b \\+=|\\bcount\\b = \\bcount\\b \\+",
                           JavaContents());
}

}  // namespace
}  // namespace jfeed
