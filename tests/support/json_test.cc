#include "support/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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

/// xorshift64: a fixed, seeded sequence.
uint64_t NextRandom(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

std::string Fixed(double value) {
  std::string out = "x";  // Appends, never overwrites.
  AppendFixed(value, &out);
  return out.substr(1);
}

TEST(JsonNumberTest, AppendFixedWritesToStringsBytes) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, Limits::max(),
      -Limits::max(), Limits::min(), Limits::denorm_min(), Limits::epsilon(),
      Limits::quiet_NaN(), -Limits::quiet_NaN(), Limits::infinity(),
      -Limits::infinity(), 0.0000005, 0.0000015, 0.0000025, 1e-7,
      999999.9999995, 123456789012345678.0, 0.1, 2.0 / 3.0};
  // Exact ties at the sixth decimal: odd multiples of 1/128 end in 5 at the
  // seventh, so they test the rounding of the exact binary value.
  for (int j = 1; j < 4'000; j += 2) {
    values.push_back(j / 128.0);
    values.push_back(-j / 128.0);
    values.push_back(1e6 + j / 128.0);
  }
  for (int k = 0; k <= 20; ++k) values.push_back(0.5 * k);  // Scores.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000; ++i) {
    // Wall times in milliseconds, as the stage timers report them...
    values.push_back(static_cast<double>(NextRandom(&state) % 50'000'000) /
                     1e4 / static_cast<double>(1 + NextRandom(&state) % 7));
    // ...and any bit pattern at all.
    values.push_back(std::bit_cast<double>(NextRandom(&state)));
  }
  for (double value : values) {
    EXPECT_EQ(Fixed(value), std::to_string(value)) << std::hexfloat << value;
  }
}

TEST(JsonNumberTest, AppendIntWritesToStringsBytes) {
  auto spell = [](auto value) {
    std::string out = "x";
    AppendInt(value, &out);
    return out.substr(1);
  };
  for (int64_t value : {int64_t{0}, int64_t{-1}, int64_t{7}, int64_t{-42},
                        std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(spell(value), std::to_string(value));
  }
  EXPECT_EQ(spell(std::numeric_limits<uint64_t>::max()),
            std::to_string(std::numeric_limits<uint64_t>::max()));
  EXPECT_EQ(spell(std::numeric_limits<int>::min()),
            std::to_string(std::numeric_limits<int>::min()));
  EXPECT_EQ(spell(std::numeric_limits<size_t>::max()),
            std::to_string(std::numeric_limits<size_t>::max()));
  uint64_t state = 12345;
  for (int i = 0; i < 10'000; ++i) {
    const auto value = static_cast<int64_t>(NextRandom(&state)) >>
                       (NextRandom(&state) % 64);
    EXPECT_EQ(spell(value), std::to_string(value));
  }
}

TEST(JsonTest, PlainRunsAndEscapesInterleave) {
  // Runs of copied bytes around every escape, at both ends of the string.
  EXPECT_EQ(Quote("\"ab\\\x02\xC3\xA9\x7F\n"),
            "\"\\\"ab\\\\\\u0002\xC3\xA9\x7F\\n\"");
  EXPECT_EQ(Quote(""), "\"\"");
  std::string out = "prefix";
  AppendJsonString("tail", &out);
  EXPECT_EQ(out, "prefix\"tail\"");
}

}  // namespace
}  // namespace jfeed
