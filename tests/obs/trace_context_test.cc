#include "obs/trace_context.h"

#include <set>
#include <string>

#include "gtest/gtest.h"
#include "obs/metrics.h"

// W3C trace-context propagation tests.

namespace jfeed::obs {
namespace {

constexpr char kValid[] =
    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";

TEST(TraceContextTest, MintedContextsAreValidRootsAndDistinct) {
  std::set<std::string> seen;
  for (int i = 0; i < 64; ++i) {
    TraceContext ctx = MintTraceContext();
    EXPECT_TRUE(ctx.valid());
    EXPECT_EQ(ctx.span_id, 0u);  // A minted context is a root: no parent.
    seen.insert(TraceIdHex(ctx));
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(TraceContextTest, HexRenderingIsFixedWidthLowercase) {
  TraceContext ctx;
  ctx.trace_hi = 0x4bf92f3577b34da6ULL;
  ctx.trace_lo = 0xa3ce929d0e0e4736ULL;
  EXPECT_EQ(TraceIdHex(ctx), "4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_EQ(SpanIdHex(0x00f067aa0ba902b7ULL), "00f067aa0ba902b7");
  // Small values pad to full width — the ids are fixed-width join keys.
  ctx.trace_hi = 0;
  ctx.trace_lo = 0xb7;
  EXPECT_EQ(TraceIdHex(ctx), "000000000000000000000000000000b7");
  EXPECT_EQ(SpanIdHex(1), "0000000000000001");
}

TEST(TraceContextTest, FormatParseRoundTrip) {
  TraceContext ctx;
  ctx.trace_hi = 0x4bf92f3577b34da6ULL;
  ctx.trace_lo = 0xa3ce929d0e0e4736ULL;
  ctx.span_id = 0x00f067aa0ba902b7ULL;
  std::string header = FormatTraceparent(ctx);
  EXPECT_EQ(header, kValid);

  TraceContext parsed;
  ASSERT_TRUE(ParseTraceparent(header, &parsed));
  EXPECT_EQ(parsed.trace_hi, ctx.trace_hi);
  EXPECT_EQ(parsed.trace_lo, ctx.trace_lo);
  EXPECT_EQ(parsed.span_id, ctx.span_id);
}

TEST(TraceContextTest, RootContextRendersTraceLowWordAsParent) {
  // W3C forbids an all-zero parent-id, so a root (span_id == 0) renders
  // with the trace id's low word standing in — and still parses as valid.
  TraceContext root = MintTraceContext();
  TraceContext parsed;
  ASSERT_TRUE(ParseTraceparent(FormatTraceparent(root), &parsed));
  EXPECT_EQ(parsed.trace_hi, root.trace_hi);
  EXPECT_EQ(parsed.trace_lo, root.trace_lo);
  EXPECT_EQ(parsed.span_id, root.trace_lo);
}

TEST(TraceContextTest, RejectsTruncatedHeaders) {
  TraceContext out;
  EXPECT_FALSE(ParseTraceparent("", &out));
  EXPECT_FALSE(ParseTraceparent("00", &out));
  EXPECT_FALSE(ParseTraceparent("00-4bf92f35", &out));
  // One character short of the version-00 length.
  EXPECT_FALSE(
      ParseTraceparent(std::string(kValid).substr(0, 54), &out));
  // Version 00 must be exactly 55 characters: no trailing data.
  EXPECT_FALSE(ParseTraceparent(std::string(kValid) + "-x", &out));
}

TEST(TraceContextTest, RejectsAllZeroTraceAndParentIds) {
  TraceContext out;
  EXPECT_FALSE(ParseTraceparent(
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01", &out));
  EXPECT_FALSE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", &out));
}

TEST(TraceContextTest, RejectsForbiddenAndMalformedVersions) {
  TraceContext out;
  // Version ff is explicitly forbidden by the spec.
  EXPECT_FALSE(ParseTraceparent(
      "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &out));
  // Uppercase hex anywhere is invalid (W3C requires lowercase).
  EXPECT_FALSE(ParseTraceparent(
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", &out));
  EXPECT_FALSE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", &out));
  // Garbage version / separators.
  EXPECT_FALSE(ParseTraceparent(
      "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &out));
  EXPECT_FALSE(ParseTraceparent(
      "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &out));
}

TEST(TraceContextTest, AcceptsWellFormedFutureVersions) {
  TraceContext out;
  // A future version is read through its version-00 prefix…
  ASSERT_TRUE(ParseTraceparent(
      "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &out));
  EXPECT_EQ(out.span_id, 0x00f067aa0ba902b7ULL);
  // …including when it appends dash-separated extra fields…
  EXPECT_TRUE(ParseTraceparent(
      "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
      &out));
  // …but longer headers must continue with a dash right after the prefix.
  EXPECT_FALSE(ParseTraceparent(
      "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01extra",
      &out));
}

TEST(TraceContextTest, ContextFromHeaderAdoptsValidHeaders) {
  TraceContext ctx = ContextFromHeader(kValid);
  EXPECT_EQ(TraceIdHex(ctx), "4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_EQ(ctx.span_id, 0x00f067aa0ba902b7ULL);
}

TEST(TraceContextTest, ContextFromHeaderMintsOnMissingOrInvalid) {
  // Missing header: a fresh root, not a failure.
  TraceContext minted = ContextFromHeader("");
  EXPECT_TRUE(minted.valid());
  EXPECT_EQ(minted.span_id, 0u);
  // Invalid header: also a fresh root — the grade is never rejected over a
  // bad traceparent — and distinct from the garbage input.
  TraceContext recovered = ContextFromHeader("00-garbage");
  EXPECT_TRUE(recovered.valid());
}

TEST(TraceContextTest, InvalidHeadersAreCountedValidAndMissingAreNot) {
  Registry::Global().ResetForTest();
  Registry::Global().set_enabled(true);
  Counter* invalid = Registry::Global().GetCounter(
      "jfeed_trace_context_invalid_total",
      "traceparent headers rejected by W3C validation", {});
  EXPECT_EQ(invalid->Value(), 0);

  ContextFromHeader("");  // Absent: nothing to reject.
  EXPECT_EQ(invalid->Value(), 0);
  ContextFromHeader(kValid);  // Valid: adopted.
  EXPECT_EQ(invalid->Value(), 0);

  ContextFromHeader("00-truncated");
  ContextFromHeader(
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01");
  ContextFromHeader(
      "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01");
  EXPECT_EQ(invalid->Value(), 3);

  Registry::Global().set_enabled(false);
  Registry::Global().ResetForTest();
}

}  // namespace
}  // namespace jfeed::obs
