#include "support/json.h"

#include <gtest/gtest.h>

#include <string>

namespace jfeed {
namespace {

std::string Quote(std::string_view s) {
  std::string out;
  AppendJsonString(s, &out);
  return out;
}

/// Encodes then decodes `s`, requiring the decoder to stop right after the
/// closing quote.
std::string RoundTrip(const std::string& s) {
  std::string json = Quote(s);
  size_t pos = 0;
  auto decoded = ParseJsonString(json, &pos);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(pos, json.size());
  return decoded.ok() ? *decoded : std::string();
}

TEST(JsonTest, EveryByteRoundTrips) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    std::string one(1, static_cast<char>(b));
    EXPECT_EQ(RoundTrip(one), one) << "byte " << b;
    all += one;
  }
  EXPECT_EQ(RoundTrip(all), all);
}

TEST(JsonTest, Utf8IsCopiedAndRoundTrips) {
  const std::string text =
      "gr\xC3\xBC\xC3\x9F" "e \xE2\x82\xAC \xF0\x9F\x98\x80";
  EXPECT_EQ(Quote(text), "\"" + text + "\"");
  EXPECT_EQ(RoundTrip(text), text);
}

TEST(JsonTest, EscapeSpelling) {
  EXPECT_EQ(Quote("q\"b\\n\nr\rt\tc\x01" "d\x1f"),
            "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001d\\u001f\"");
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  size_t pos = 0;
  auto decoded =
      ParseJsonString("\"\\u00e9 \\u20AC \\ud83d\\ude00 \\ud83d \\/\\b\\f\"",
                      &pos);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // An unpaired high surrogate keeps its own three bytes.
  EXPECT_EQ(*decoded,
            "\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80 \xED\xA0\xBD /\b\f");
}

TEST(JsonTest, MalformedEscapesAndUnterminatedStringsAreErrors) {
  for (const char* bad :
       {"\"abc", "\"ab\\", "\"\\x41\"", "\"\\u12\"", "\"\\u12g4\"",
        "\"\\u00", "abc\"", ""}) {
    size_t pos = 0;
    auto decoded = ParseJsonString(bad, &pos);
    EXPECT_FALSE(decoded.ok()) << bad;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(JsonTest, SkipJsonSpaceStopsAtTheFirstOtherByte) {
  size_t pos = 0;
  SkipJsonSpace(" \t\r\n\f\v\"x\"", &pos);
  EXPECT_EQ(pos, 6u);
}

}  // namespace
}  // namespace jfeed
