#include "javalang/fingerprint.h"

#include <gtest/gtest.h>

#include <string>

#include "javalang/ast.h"
#include "javalang/lexer.h"
#include "javalang/parser.h"

namespace jfeed::java {
namespace {

Method ParseOne(const std::string& source) {
  auto unit = Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_EQ(unit->methods.size(), 1u);
  return std::move(unit->methods[0]);
}

TEST(FingerprintTest, ParserStampsFingerprint) {
  Method m = ParseOne("int f(int a) { return a + 1; }");
  EXPECT_NE(m.fingerprint, 0u);
}

TEST(FingerprintTest, WhitespaceAndCommentsDoNotChangeFingerprint) {
  Method a = ParseOne("int f(int a) { return a + 1; }");
  Method b = ParseOne(
      "int f(int a) {\n"
      "  // a cosmetic comment\n"
      "  return a + 1;\n"
      "}\n");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(FingerprintTest, ModifiersDoNotChangeFingerprint) {
  // The parser discards modifiers, so `static int f` and `int f` yield the
  // same method semantics — and, by design, the same cache entry.
  Method plain = ParseOne("int f() { return 1; }");
  Method modified = ParseOne("public static int f() { return 1; }");
  EXPECT_EQ(plain.fingerprint, modified.fingerprint);
}

TEST(FingerprintTest, BodyEditChangesFingerprint) {
  Method a = ParseOne("int f(int a) { return a + 1; }");
  Method b = ParseOne("int f(int a) { return a + 2; }");
  Method c = ParseOne("int f(int b) { return b + 1; }");  // renamed param
  EXPECT_NE(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(FingerprintTest, ClonePreservesFingerprint) {
  Method m = ParseOne("int f(int a) { return a * 3; }");
  Method copy = m.Clone();
  EXPECT_EQ(copy.fingerprint, m.fingerprint);
}

TEST(FingerprintTest, TokenStreamFingerprintIsWhitespaceInvariant) {
  auto a = Lex("int f ( ) { return 1 ; }");
  auto b = Lex("int f(){return 1;}  // trailing comment");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(FingerprintTokenStream(*a), FingerprintTokenStream(*b));
}

TEST(FingerprintTest, RawBytesFallbackIsDomainSeparated) {
  // A source that happens to equal some token spelling must not collide
  // with the lexed domain.
  auto tokens = Lex("int");
  ASSERT_TRUE(tokens.ok());
  EXPECT_NE(FingerprintRawBytes("int"), FingerprintTokenStream(*tokens));
  EXPECT_NE(FingerprintRawBytes("a"), FingerprintRawBytes("b"));
}

TEST(FingerprintTest, SubsliceFingerprintMatchesMethodBoundary) {
  // Two methods in one unit: each method's recorded fingerprint must equal
  // the fingerprint of the same method parsed alone (the property that
  // makes per-method caching coherent across multi-method submissions).
  auto unit = Parse(
      "int f(int a) { return a + 1; }\n"
      "int g(int b) { return b * 2; }\n");
  ASSERT_TRUE(unit.ok());
  ASSERT_EQ(unit->methods.size(), 2u);
  Method f_alone = ParseOne("int f(int a) { return a + 1; }");
  Method g_alone = ParseOne("int g(int b) { return b * 2; }");
  EXPECT_EQ(unit->methods[0].fingerprint, f_alone.fingerprint);
  EXPECT_EQ(unit->methods[1].fingerprint, g_alone.fingerprint);
}

}  // namespace
}  // namespace jfeed::java
