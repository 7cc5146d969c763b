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

TEST(LiteRegexTest, ClassIndexDoesNotWrap) {
  // Instructions name their class in one byte: 256 classes compile, and a
  // 257th fails instead of reusing class 0 (which would make this pattern
  // reject "x5" and accept "xx").
  std::string fits = "[x]";
  for (int i = 0; i < 254; ++i) fits += "\\d?";
  fits += "\\d";
  ExpectAgreesWithStdRegex(fits, {"x5", "xx", "x", "5x5", "x55", ""});
  std::string wraps = "[x]";
  for (int i = 0; i < 255; ++i) wraps += "\\d?";
  wraps += "\\d";
  LiteRegex lite;
  EXPECT_FALSE(LiteRegex::Compile(wraps, &lite));
}

TEST(LiteRegexTest, PrefilterQuantifiedLiterals) {
  const std::vector<std::string> texts = {
      "", "a", "ac", "abc", "abbc", "abbbc", "b", "ab", "aab", "aaab",
      "xabcx", "ababc", "abab", "c", "xw", "xyzw", "xyzyzw", "xyw", "x w"};
  ExpectAgreesWithStdRegex("ab?c", texts);
  ExpectAgreesWithStdRegex("ab*c", texts);
  ExpectAgreesWithStdRegex("ab+c", texts);
  ExpectAgreesWithStdRegex("a+b", texts);
  ExpectAgreesWithStdRegex("a+?b", texts);
  ExpectAgreesWithStdRegex("(ab)+c", texts);
  ExpectAgreesWithStdRegex("x(?:yz)?w", texts);
  ExpectAgreesWithStdRegex("x(?:yz)+w", texts);
}

TEST(LiteRegexTest, PrefilterAssertionsInsideARun) {
  std::vector<std::string> texts = JavaContents();
  for (const char* extra :
       {"i % 5 == 0", "i % 5 == x", "xi % 5 == 0", "j % 5 == 3",
        "if (i % 5 == 0 && m > 0)", "int", " int", "length", "length "}) {
    texts.push_back(extra);
  }
  ExpectAgreesWithStdRegex("\\bi\\b % 5 == \\d", texts);
  ExpectAgreesWithStdRegex("^int", texts);
  ExpectAgreesWithStdRegex("length$", texts);
  ExpectAgreesWithStdRegex("s\\b\\.length", texts);
  ExpectAgreesWithStdRegex("n\\Bt", texts);
}

TEST(LiteRegexTest, PrefilterAlternativeWithoutALiteral) {
  const std::vector<std::string> texts = {"", "a", "b", "foo", "fo", "42",
                                          "x", "bar", "+", " ", "ba"};
  ExpectAgreesWithStdRegex("a|", texts);
  ExpectAgreesWithStdRegex("foo|\\d+", texts);
  ExpectAgreesWithStdRegex("\\w+|bar", texts);
  ExpectAgreesWithStdRegex("foo|bar", texts);
}

TEST(LiteRegexTest, PrefilterEscapedBytes) {
  using namespace std::string_literals;
  const std::vector<std::string> texts = {
      "", "a.b", "axb", "a\nb", "a\n", "\n", "a\0b"s, "\0"s, "a\0"s,
      "x\0y\0z"s, "a{b}", "{", "a{", "a}", "0", "a0b"};
  ExpectAgreesWithStdRegex("a\\.b", texts);
  ExpectAgreesWithStdRegex("a\\nb", texts);
  ExpectAgreesWithStdRegex("\\n", texts);
  ExpectAgreesWithStdRegex("a\\0b", texts);
  ExpectAgreesWithStdRegex("\\0", texts);
  ExpectAgreesWithStdRegex("a\\{b\\}", texts);
  ExpectAgreesWithStdRegex("\\{", texts);
}

TEST(LiteRegexTest, PrefilterLeadingAtoms) {
  const std::vector<std::string> texts = {
      "", "c", "ac", "bc", "cc", "xac", "x", "ax", "\nx", "xx", "b",
      "ab", "aab", "cb", "x y", "yx", " x", "x\n"};
  ExpectAgreesWithStdRegex("[ab]c", texts);
  ExpectAgreesWithStdRegex(".x", texts);
  ExpectAgreesWithStdRegex("a?b", texts);
  ExpectAgreesWithStdRegex("\\bx", texts);
  ExpectAgreesWithStdRegex("[^a]c", texts);
  ExpectAgreesWithStdRegex("(a|b)?c", texts);
}

TEST(LiteRegexTest, PrefilterEmptyText) {
  for (const char* pattern :
       {"", "a", "a*", "a?b", "^", "$", "^$", "\\b", "\\B", "[ab]c", ".",
        "a|", "(a|)"}) {
    ExpectAgreesWithStdRegex(pattern, {""});
  }
}

TEST(LiteRegexTest, LiteralCheckRejectsBeforeThePikeVm) {
  LiteRegex lite;
  ASSERT_TRUE(LiteRegex::Compile("\\bi\\b % 5 == 0", &lite));
  LiteRegexScratch scratch;
  // The required literal is "i % 5 == 0"; this text does not hold it.
  EXPECT_FALSE(lite.Search("j % 5 == 0", &scratch));
  EXPECT_TRUE(scratch.mark.empty());
  EXPECT_EQ(scratch.generation, 0u);
  // A text holding the literal reaches the VM, which uses the scratch.
  EXPECT_FALSE(lite.Search("xi % 5 == 0", &scratch));
  EXPECT_FALSE(scratch.mark.empty());
  EXPECT_GT(scratch.generation, 0u);
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
