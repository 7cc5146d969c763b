#include "javalang/lexer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "kb/assignments.h"
#include "sched/result_cache.h"
#include "synth/generator.h"

namespace jfeed::java {
namespace {

std::vector<TokenKind> Kinds(const std::vector<Token>& tokens) {
  std::vector<TokenKind> out;
  for (const auto& t : tokens) out.push_back(t.kind);
  return out;
}

TEST(LexerTest, EmptyInputYieldsEof) {
  auto r = Lex("");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(r->front().kind, TokenKind::kEof);
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto r = Lex("int foo while forX");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Kinds(*r),
            (std::vector<TokenKind>{TokenKind::kKwInt, TokenKind::kIdentifier,
                                    TokenKind::kKwWhile,
                                    TokenKind::kIdentifier, TokenKind::kEof}));
  EXPECT_EQ((*r)[1].text, "foo");
  EXPECT_EQ((*r)[3].text, "forX");
}

TEST(LexerTest, IntAndLongLiterals) {
  auto r = Lex("42 0 123L");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].kind, TokenKind::kIntLiteral);
  EXPECT_EQ((*r)[0].int_value, 42);
  EXPECT_EQ((*r)[1].int_value, 0);
  EXPECT_EQ((*r)[2].kind, TokenKind::kLongLiteral);
  EXPECT_EQ((*r)[2].int_value, 123);
}

TEST(LexerTest, DoubleLiterals) {
  auto r = Lex("3.14 2.0 1e3 2.5e-2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].kind, TokenKind::kDoubleLiteral);
  EXPECT_DOUBLE_EQ((*r)[0].double_value, 3.14);
  EXPECT_DOUBLE_EQ((*r)[1].double_value, 2.0);
  EXPECT_DOUBLE_EQ((*r)[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ((*r)[3].double_value, 0.025);
}

TEST(LexerTest, DotAfterIntegerIsFieldAccessNotDouble) {
  // `a.length` style: "1." without digits must not consume the dot.
  auto r = Lex("a.length");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Kinds(*r), (std::vector<TokenKind>{
                           TokenKind::kIdentifier, TokenKind::kDot,
                           TokenKind::kIdentifier, TokenKind::kEof}));
}

TEST(LexerTest, StringLiteralWithEscapes) {
  auto r = Lex(R"("a\nb\"c")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ((*r)[0].string_value, "a\nb\"c");
}

TEST(LexerTest, UnterminatedStringIsParseError) {
  auto r = Lex("\"abc");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, CharLiterals) {
  auto r = Lex(R"('a' '\n' '\'')");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].int_value, 'a');
  EXPECT_EQ((*r)[1].int_value, '\n');
  EXPECT_EQ((*r)[2].int_value, '\'');
}

TEST(LexerTest, OperatorsGreedy) {
  auto r = Lex("<= >= == != ++ -- += -= *= /= %= && || < > = ! + - * / % ?");
  ASSERT_TRUE(r.ok());
  std::vector<TokenKind> expect = {
      TokenKind::kLe,       TokenKind::kGe,          TokenKind::kEq,
      TokenKind::kNe,       TokenKind::kPlusPlus,    TokenKind::kMinusMinus,
      TokenKind::kPlusAssign, TokenKind::kMinusAssign, TokenKind::kStarAssign,
      TokenKind::kSlashAssign, TokenKind::kPercentAssign, TokenKind::kAndAnd,
      TokenKind::kOrOr,     TokenKind::kLt,          TokenKind::kGt,
      TokenKind::kAssign,   TokenKind::kNot,         TokenKind::kPlus,
      TokenKind::kMinus,    TokenKind::kStar,        TokenKind::kSlash,
      TokenKind::kPercent,  TokenKind::kQuestion,    TokenKind::kEof};
  EXPECT_EQ(Kinds(*r), expect);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto r = Lex("a // line comment\n b /* block\n comment */ c");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 4u);
  EXPECT_EQ((*r)[0].text, "a");
  EXPECT_EQ((*r)[1].text, "b");
  EXPECT_EQ((*r)[2].text, "c");
}

TEST(LexerTest, UnterminatedBlockCommentIsError) {
  EXPECT_FALSE(Lex("a /* b").ok());
}

TEST(LexerTest, LineAndColumnTracking) {
  auto r = Lex("a\n  b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].line, 1);
  EXPECT_EQ((*r)[0].column, 1);
  EXPECT_EQ((*r)[1].line, 2);
  EXPECT_EQ((*r)[1].column, 3);
}

TEST(LexerTest, BitwiseOperatorsRejected) {
  EXPECT_FALSE(Lex("a & b").ok());
  EXPECT_FALSE(Lex("a | b").ok());
}

TEST(LexerTest, UnknownCharacterRejected) {
  EXPECT_FALSE(Lex("a # b").ok());
  EXPECT_FALSE(Lex("a @ b").ok());
}

TEST(LexerTest, OutOfRangeDoubleIsParseError) {
  // Java rejects both at compile time; neither may escape as an exception.
  auto over = Lex("double d = 1e999;");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().ToString(),
            "ParseError: double literal out of range: 1e999 at line 1, "
            "column 17");
  auto under = Lex("x = 2.5e-400;");
  ASSERT_FALSE(under.ok());
  EXPECT_EQ(under.status().ToString(),
            "ParseError: double literal out of range: 2.5e-400 at line 1, "
            "column 13");
  auto largest = Lex("1.7976931348623157e308");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ((*largest)[0].double_value, 1.7976931348623157e308);
  // Subnormal values are literals Java accepts (Double.MIN_VALUE).
  auto smallest = Lex("4.9e-324 1e-310 0e999");
  ASSERT_TRUE(smallest.ok()) << smallest.status().ToString();
  EXPECT_EQ((*smallest)[0].double_value,
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ((*smallest)[1].double_value, 1e-310);
  EXPECT_EQ((*smallest)[2].double_value, 0.0);
}

// A diagnostic names a non-ASCII character whole when its bytes are
// well-formed UTF-8 and as \xNN otherwise, so the reply line carrying it
// stays valid UTF-8; the column is the one after the character's first
// byte, as before.
TEST(LexerTest, NonAsciiIdentifierCharacterIsNamedWhole) {
  auto r = Lex("void f() {\n  int caf\xC3\xA9 = 1;\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(),
            "ParseError: unexpected character '\xC3\xA9' at line 2, "
            "column 11");
}

TEST(LexerTest, SmartQuoteIsNamedWhole) {
  auto r = Lex("s = \xE2\x80\x9Chi\xE2\x80\x9D;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(),
            "ParseError: unexpected character '\xE2\x80\x9C' at line 1, "
            "column 6");
}

TEST(LexerTest, MalformedUtf8ByteIsEscaped) {
  // A lead byte with no continuation, a stray continuation byte, an
  // overlong form, a surrogate and a lead byte cut off by the end.
  const struct {
    const char* source;
    const char* message;
  } kCases[] = {
      {"a \xC3 b", "unexpected character '\\xC3' at line 1, column 4"},
      {"a \xA9", "unexpected character '\\xA9' at line 1, column 4"},
      {"\xC0\xAF", "unexpected character '\\xC0' at line 1, column 2"},
      {"\xED\xA0\x80", "unexpected character '\\xED' at line 1, column 2"},
      {"x\xE2\x80", "unexpected character '\\xE2' at line 1, column 3"},
      {"\xF4\x90\x80\x80",
       "unexpected character '\\xF4' at line 1, column 2"},
  };
  for (const auto& c : kCases) {
    auto r = Lex(c.source);
    ASSERT_FALSE(r.ok()) << c.message;
    EXPECT_EQ(r.status().ToString(), std::string("ParseError: ") + c.message);
  }
}

TEST(LexerTest, NonAsciiEscapeInLiteralsIsNamedWhole) {
  auto in_string = Lex("s = \"\\\xC3\xA9\";");
  ASSERT_FALSE(in_string.ok());
  EXPECT_EQ(in_string.status().ToString(),
            "ParseError: unsupported escape \\\xC3\xA9 at line 1, column 8");
  auto in_char = Lex("c = '\\\xC3\xA9';");
  ASSERT_FALSE(in_char.ok());
  EXPECT_EQ(in_char.status().ToString(),
            "ParseError: unsupported escape \\\xC3\xA9 at line 1, column 8");
  auto lone = Lex("s = \"\\\xC3\";");
  ASSERT_FALSE(lone.ok());
  EXPECT_EQ(lone.status().ToString(),
            "ParseError: unsupported escape \\\\xC3 at line 1, column 8");
}

TEST(LexerTest, NonAsciiInsideStringLiteralIsKept) {
  auto r = Lex("s = \"caf\xC3\xA9\";");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)[2].string_value, "caf\xC3\xA9");
}

// --- Pin: every token field and error message over a fixed corpus --------

/// FNV-1a over everything Lex() reports for a source, plus its
/// TokenFingerprint.
class LexDigest {
 public:
  void Add(std::string_view source) {
    auto tokens = Lex(source);
    if (!tokens.ok()) {
      ++failures_;
      Word(1);
      Text(tokens.status().ToString());
    } else {
      Word(0);
      Word(tokens->size());
      for (const Token& t : *tokens) {
        Word(static_cast<uint64_t>(t.kind));
        Text(t.text);
        Word(static_cast<uint64_t>(t.line));
        Word(static_cast<uint64_t>(t.column));
        Word(static_cast<uint64_t>(t.int_value));
        Word(std::bit_cast<uint64_t>(t.double_value));
        Text(t.string_value);
      }
    }
    Word(sched::TokenFingerprint(std::string(source)));
  }
  uint64_t value() const { return hash_; }
  size_t failures() const { return failures_; }

 private:
  void Byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;
  }
  void Word(uint64_t w) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(w >> (8 * i)));
  }
  void Text(std::string_view s) {
    Word(s.size());
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }

  uint64_t hash_ = 0xcbf29ce484222325ull;
  size_t failures_ = 0;
};

/// splitmix64: a fixed sequence on every standard library, unlike the
/// <random> distributions.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// One to three ASCII edits (insert, delete or replace) drawn from the bytes
/// the lexer branches on.
std::string Mutate(std::string source, SplitMix* rng) {
  static constexpr std::string_view kAlphabet =
      "abcxyzABCXYZ_$019"        // identifier bytes and digits
      "0123456789.eE+-L"         // number spelling
      "(){}[];,.?:+-*/%<>=!&|"   // operators and punctuation
      "\"'\\\t\n\r\v\f\x01";  // quotes, backslash, whitespace, control
  size_t edits = 1 + rng->Below(3);
  for (size_t e = 0; e < edits; ++e) {
    size_t at = rng->Below(source.size() + 1);
    char byte = kAlphabet[rng->Below(kAlphabet.size())];
    switch (rng->Below(3)) {
      case 0:
        source.insert(source.begin() + static_cast<ptrdiff_t>(at), byte);
        break;
      case 1:
        if (at < source.size()) source.erase(at, 1);
        break;
      default:
        if (at < source.size()) source[at] = byte;
        break;
    }
  }
  return source;
}

bool IsAscii(std::string_view s) {
  for (char c : s) {
    if (static_cast<unsigned char>(c) >= 0x80) return false;
  }
  return true;
}

TEST(LexerPinTest, TokensErrorsAndFingerprintsOverCorpusAndMutations) {
  // Each assignment's reference and 100 sampled submissions, each followed
  // by seeded mutations. The inputs stay ASCII, so how non-ASCII bytes are
  // reported cannot move the digest; the constant was taken from the lexer
  // that split each token through Result<Token> and locale classifiers.
  constexpr int kMutationsPerSource = 24;
  LexDigest digest;
  SplitMix rng(20171);
  size_t inputs = 0;
  const kb::KnowledgeBase& kb = kb::KnowledgeBase::Get();
  for (const std::string& id : kb.assignment_ids()) {
    const kb::Assignment& assignment = kb.assignment(id);
    for (uint64_t index :
         synth::SampleIndexes(assignment.generator.SpaceSize(), 100)) {
      const std::string source = assignment.generator.Generate(index);
      ASSERT_TRUE(IsAscii(source)) << id << " #" << index;
      digest.Add(source);
      ++inputs;
      for (int m = 0; m < kMutationsPerSource; ++m) {
        digest.Add(Mutate(source, &rng));
        ++inputs;
      }
    }
  }
  EXPECT_GT(inputs, 20'000u);
  // Both outcomes are well represented: the digest covers error messages
  // as much as token fields.
  EXPECT_GT(digest.failures(), inputs / 10);
  EXPECT_LT(digest.failures(), inputs - inputs / 10);
  EXPECT_EQ(digest.value(), 0xe306d7ca16efd1d7ull)
      << std::hex << digest.value();
}

}  // namespace
}  // namespace jfeed::java
