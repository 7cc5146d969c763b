#include "interp/value.h"

#include <gtest/gtest.h>

namespace jfeed::interp {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToJavaString(), "null");
}

TEST(ValueTest, IntRendering) {
  EXPECT_EQ(Value::Int(42).ToJavaString(), "42");
  EXPECT_EQ(Value::Int(-7).ToJavaString(), "-7");
}

TEST(ValueTest, DoubleRenderingAlwaysHasDecimal) {
  EXPECT_EQ(Value::Double(4.0).ToJavaString(), "4.0");
  EXPECT_EQ(Value::Double(3.5).ToJavaString(), "3.5");
  EXPECT_EQ(Value::Double(-0.25).ToJavaString(), "-0.25");
}

TEST(ValueTest, CharRendersAsCharacter) {
  EXPECT_EQ(Value::Char('A').ToJavaString(), "A");
}

TEST(ValueTest, BoolRendering) {
  EXPECT_EQ(Value::Bool(true).ToJavaString(), "true");
  EXPECT_EQ(Value::Bool(false).ToJavaString(), "false");
}

TEST(ValueTest, NumericPredicates) {
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_TRUE(Value::Int(1).is_integral());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::Double(1).is_integral());
  EXPECT_FALSE(Value::Str("x").is_numeric());
  EXPECT_FALSE(Value::Bool(true).is_numeric());
}

TEST(ValueTest, JavaEqualsMixedNumeric) {
  EXPECT_TRUE(Value::Int(2).JavaEquals(Value::Double(2.0)));
  EXPECT_TRUE(Value::Int(2).JavaEquals(Value::Long(2)));
  EXPECT_FALSE(Value::Int(2).JavaEquals(Value::Int(3)));
}

TEST(ValueTest, JavaEqualsStrings) {
  EXPECT_TRUE(Value::Str("a").JavaEquals(Value::Str("a")));
  EXPECT_FALSE(Value::Str("a").JavaEquals(Value::Str("b")));
  EXPECT_FALSE(Value::Str("1").JavaEquals(Value::Int(1)));
}

TEST(ValueTest, ArrayEqualityIsReference) {
  Value a = Value::IntArray({1, 2});
  Value b = Value::IntArray({1, 2});
  EXPECT_TRUE(a.JavaEquals(a));
  EXPECT_FALSE(a.JavaEquals(b));
}

TEST(ValueTest, ArrayFactories) {
  Value a = Value::IntArray({1, 2, 3});
  ASSERT_EQ(a.kind(), Value::Kind::kArray);
  EXPECT_EQ(a.AsArray()->elems.size(), 3u);
  EXPECT_EQ(a.AsArray()->elems[1].AsInt(), 2);
  Value d = Value::DoubleArray({1.5});
  EXPECT_EQ(d.AsArray()->elem_kind, java::TypeKind::kDouble);
  Value s = Value::StringArray({"x", "y"});
  EXPECT_EQ(s.AsArray()->elems[0].AsString(), "x");
}

TEST(ValueTest, AsDoubleConvertsIntegrals) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsDouble(), 3.0);
  EXPECT_EQ(Value::Double(3.9).AsInt(), 3);
}

TEST(ValueTest, ScannerState) {
  auto state = std::make_shared<ScannerState>();
  state->tokens = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"a", "b"});
  Value v = Value::Scanner(state);
  EXPECT_TRUE(v.AsScanner()->HasNext());
  state->pos = 2;
  EXPECT_FALSE(v.AsScanner()->HasNext());
  state->pos = 0;
  state->closed = true;
  EXPECT_FALSE(v.AsScanner()->HasNext());
}


// --- Every accessor on every kind --------------------------------------------
// The accessors are total: each answers for every kind, and these are the
// answers callers rely on (e.g. AsBool() of a double is false, AsString() of
// an int is empty, AsInt() of a String is 0).

struct AccessorRow {
  const char* name;
  Value value;
  Value::Kind kind;
  bool is_null, is_numeric, is_integral;
  int64_t as_int;
  double as_double;
  bool as_bool;
  const char* as_string;
  bool has_array, has_scanner;
  const char* java_string;
};

TEST(ValueTest, EveryAccessorOnEveryKind) {
  auto scanner = std::make_shared<ScannerState>();
  scanner->tokens = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"7"});
  using K = Value::Kind;
  const AccessorRow rows[] = {
      {"null", Value::Null(), K::kNull, true, false, false, 0, 0.0, false, "",
       false, false, "null"},
      {"int", Value::Int(-5), K::kInt, false, true, true, -5, -5.0, true, "",
       false, false, "-5"},
      {"int0", Value::Int(0), K::kInt, false, true, true, 0, 0.0, false, "",
       false, false, "0"},
      {"long", Value::Long(1ll << 40), K::kLong, false, true, true, 1ll << 40,
       1099511627776.0, true, "", false, false, "1099511627776"},
      {"double", Value::Double(-2.75), K::kDouble, false, true, false, -2,
       -2.75, false, "", false, false, "-2.75"},
      {"double1", Value::Double(1.0), K::kDouble, false, true, false, 1, 1.0,
       false, "", false, false, "1.0"},
      {"bool", Value::Bool(true), K::kBool, false, false, false, 1, 1.0, true,
       "", false, false, "true"},
      {"boolf", Value::Bool(false), K::kBool, false, false, false, 0, 0.0,
       false, "", false, false, "false"},
      {"char", Value::Char('A'), K::kChar, false, true, true, 65, 65.0, true,
       "", false, false, "A"},
      {"string", Value::Str("hi"), K::kString, false, false, false, 0, 0.0,
       false, "hi", false, false, "hi"},
      {"string1", Value::Str("1"), K::kString, false, false, false, 0, 0.0,
       false, "1", false, false, "1"},
      {"array", Value::IntArray({1, 2}), K::kArray, false, false, false, 0, 0.0,
       false, "", true, false, "[array]"},
      {"nullarray", Value::Array(nullptr), K::kArray, false, false, false, 0,
       0.0, false, "", false, false, "[array]"},
      {"scanner", Value::Scanner(scanner), K::kScanner, false, false, false, 0,
       0.0, false, "", false, true, "[scanner]"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    const Value& v = row.value;
    EXPECT_EQ(v.kind(), row.kind);
    EXPECT_EQ(v.is_null(), row.is_null);
    EXPECT_EQ(v.is_numeric(), row.is_numeric);
    EXPECT_EQ(v.is_integral(), row.is_integral);
    EXPECT_EQ(v.AsInt(), row.as_int);
    EXPECT_DOUBLE_EQ(v.AsDouble(), row.as_double);
    EXPECT_EQ(v.AsBool(), row.as_bool);
    EXPECT_EQ(v.AsString(), row.as_string);
    EXPECT_EQ(v.AsArray() != nullptr, row.has_array);
    EXPECT_EQ(v.AsScanner() != nullptr, row.has_scanner);
    EXPECT_EQ(v.ToJavaString(), row.java_string);
    // A copy answers the same, and shares any reference payload.
    Value copy = v;
    EXPECT_EQ(copy.kind(), row.kind);
    EXPECT_EQ(copy.AsInt(), row.as_int);
    EXPECT_EQ(copy.AsString(), row.as_string);
    EXPECT_EQ(copy.AsArray(), v.AsArray());
    EXPECT_EQ(copy.AsScanner(), v.AsScanner());
    EXPECT_EQ(copy.ToJavaString(), row.java_string);
  }
}

TEST(ValueTest, CopiesOfAnArrayAlias) {
  Value a = Value::IntArray({1, 2});
  Value b = a;
  b.AsArray()->elems[0] = Value::Int(9);
  EXPECT_EQ(a.AsArray()->elems[0].AsInt(), 9);
  EXPECT_TRUE(a.JavaEquals(b));
}

TEST(ValueTest, ReassignmentReplacesKindAndPayload) {
  Value v = Value::Str("text");
  v = Value::Double(0.5);
  EXPECT_EQ(v.kind(), Value::Kind::kDouble);
  EXPECT_EQ(v.AsString(), "");
  EXPECT_FALSE(v.AsBool());
  v = Value::IntArray({3});
  EXPECT_EQ(v.AsInt(), 0);
  EXPECT_EQ(v.AsArray()->elems[0].AsInt(), 3);
  v = Value::Int(4);
  EXPECT_EQ(v.AsArray(), nullptr);
  EXPECT_EQ(v.AsInt(), 4);
}

TEST(ValueTest, JavaEqualsAcrossKinds) {
  EXPECT_TRUE(Value::Null().JavaEquals(Value::Null()));
  EXPECT_FALSE(Value::Null().JavaEquals(Value::Int(0)));
  EXPECT_TRUE(Value::Bool(true).JavaEquals(Value::Bool(true)));
  EXPECT_FALSE(Value::Bool(true).JavaEquals(Value::Int(1)));
  EXPECT_TRUE(Value::Char('A').JavaEquals(Value::Int(65)));
  EXPECT_TRUE(Value::Double(65.0).JavaEquals(Value::Char('A')));
  EXPECT_FALSE(Value::Str("").JavaEquals(Value::Null()));
}

TEST(ValueTest, HeapChargeUnitIsFrozen) {
  // The heap budget charges a fixed 88 bytes per value slot and 32 bytes of
  // bookkeeping per Scanner token, whatever the in-memory layout of Value.
  EXPECT_EQ(Value::Int(1).ApproxHeapBytes(), 88);
  EXPECT_EQ(Value::Str("abc").ApproxHeapBytes(), 88 + 3);
  EXPECT_EQ(Value::IntArray({1, 2, 3}).ApproxHeapBytes(), 88 + 3 * 88);
  EXPECT_EQ(Value::StringArray({"ab", "c"}).ApproxHeapBytes(),
            88 + 2 * 88 + 3);
  auto state = std::make_shared<ScannerState>();
  state->tokens = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"a", "bb"});
  EXPECT_EQ(Value::Scanner(state).ApproxHeapBytes(), 88 + (1 + 32) + (2 + 32));
}

}  // namespace
}  // namespace jfeed::interp
