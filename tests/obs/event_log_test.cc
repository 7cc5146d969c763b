#include "obs/event_log.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"

// Flight-recorder tests. The NDJSON schema (field names + round-trip) is
// part of the monitoring contract (DESIGN.md §6b), so the round-trip test
// below touches every WideEvent field on purpose: a field silently dropped
// from ToJson or FromJson fails here, not on a dashboard.

namespace jfeed::obs {
namespace {

/// One event with every field set to a distinct, non-default value.
WideEvent FullEvent() {
  WideEvent e;
  e.seq = 41;  // Overwritten by Append; meaningful for bare ToJson.
  e.unix_ms = 1754500000123;
  e.submission_id = "s-17 \"quoted\" \\ tab\there\nnewline";
  e.trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
  e.span_id = "00f067aa0ba902b7";
  e.assignment = "assignment-1";
  e.verdict = "incorrect";
  e.tier = "full_epdg";
  e.failure_class = "wrong_output";
  e.cache = "miss";
  e.degraded = true;
  e.diagnostic = "functional: 2/5 failed";
  e.score = 3.5;
  e.match_steps = 1234;
  e.match_regex_checks = 56;
  e.interp_steps = 7890;
  e.interp_heap_bytes = 65536;
  e.interp_output_bytes = 321;
  e.functional_tests_run = 5;
  e.functional_tests_failed = 2;
  e.arena_bytes_peak = 49152;
  e.methods_reused = 2;
  e.methods_regraded = 1;
  e.parse_ms = 0.125;
  e.epdg_ms = 1.5;
  e.match_ms = 2.25;
  e.functional_ms = 10.75;
  e.functional_timeouts = 2;
  e.interp_steps_failed = 600000;
  return e;
}

TEST(WideEventJsonTest, EveryFieldRoundTripsThroughNdjson) {
  WideEvent original = FullEvent();
  std::string line = ToJson(original);
  // NDJSON: exactly one line, no embedded raw newlines.
  EXPECT_EQ(line.find('\n'), std::string::npos);

  WideEvent parsed;
  ASSERT_TRUE(FromJson(line, &parsed));
  EXPECT_EQ(parsed.seq, original.seq);
  EXPECT_EQ(parsed.unix_ms, original.unix_ms);
  EXPECT_EQ(parsed.submission_id, original.submission_id);
  EXPECT_EQ(parsed.trace_id, original.trace_id);
  EXPECT_EQ(parsed.span_id, original.span_id);
  EXPECT_EQ(parsed.assignment, original.assignment);
  EXPECT_EQ(parsed.verdict, original.verdict);
  EXPECT_EQ(parsed.tier, original.tier);
  EXPECT_EQ(parsed.failure_class, original.failure_class);
  EXPECT_EQ(parsed.cache, original.cache);
  EXPECT_EQ(parsed.degraded, original.degraded);
  EXPECT_EQ(parsed.diagnostic, original.diagnostic);
  EXPECT_DOUBLE_EQ(parsed.score, original.score);
  EXPECT_EQ(parsed.match_steps, original.match_steps);
  EXPECT_EQ(parsed.match_regex_checks, original.match_regex_checks);
  EXPECT_EQ(parsed.interp_steps, original.interp_steps);
  EXPECT_EQ(parsed.interp_heap_bytes, original.interp_heap_bytes);
  EXPECT_EQ(parsed.interp_output_bytes, original.interp_output_bytes);
  EXPECT_EQ(parsed.functional_tests_run, original.functional_tests_run);
  EXPECT_EQ(parsed.functional_tests_failed,
            original.functional_tests_failed);
  EXPECT_EQ(parsed.arena_bytes_peak, original.arena_bytes_peak);
  EXPECT_EQ(parsed.methods_reused, original.methods_reused);
  EXPECT_EQ(parsed.methods_regraded, original.methods_regraded);
  EXPECT_DOUBLE_EQ(parsed.parse_ms, original.parse_ms);
  EXPECT_DOUBLE_EQ(parsed.epdg_ms, original.epdg_ms);
  EXPECT_DOUBLE_EQ(parsed.match_ms, original.match_ms);
  EXPECT_DOUBLE_EQ(parsed.functional_ms, original.functional_ms);
  EXPECT_EQ(parsed.functional_timeouts, original.functional_timeouts);
  EXPECT_EQ(parsed.interp_steps_failed, original.interp_steps_failed);
}

TEST(WideEventJsonTest, FailedWorkFieldsAreAppendedAfterTheExistingOnes) {
  // Append-only schema growth (DESIGN.md §6b): the new fields come last, so
  // every earlier field keeps its position in the rendered line.
  std::string line = ToJson(FullEvent());
  size_t functional_ms = line.find("\"functional_ms\":");
  size_t timeouts = line.find("\"functional_timeouts\":2");
  size_t failed = line.find("\"interp_steps_failed\":600000");
  ASSERT_NE(functional_ms, std::string::npos);
  ASSERT_NE(timeouts, std::string::npos);
  ASSERT_NE(failed, std::string::npos);
  EXPECT_LT(functional_ms, timeouts);
  EXPECT_LT(timeouts, failed);
  EXPECT_EQ(line.substr(failed), "\"interp_steps_failed\":600000}");
}

TEST(WideEventJsonTest, ContractFieldNamesArePresent) {
  // Renaming any of these is a breaking change to the /events consumers;
  // this test is the tripwire (see DESIGN.md §6b).
  std::string line = ToJson(WideEvent());
  for (const char* field :
       {"\"seq\":", "\"unix_ms\":", "\"id\":", "\"trace_id\":",
        "\"span_id\":", "\"assignment\":",
        "\"verdict\":", "\"tier\":", "\"failure_class\":", "\"cache\":",
        "\"degraded\":", "\"diagnostic\":", "\"score\":", "\"match_steps\":",
        "\"match_regex_checks\":", "\"interp_steps\":",
        "\"interp_heap_bytes\":", "\"interp_output_bytes\":",
        "\"functional_tests_run\":", "\"functional_tests_failed\":",
        "\"arena_bytes_peak\":", "\"methods_reused\":",
        "\"methods_regraded\":", "\"parse_ms\":", "\"epdg_ms\":",
        "\"match_ms\":", "\"functional_ms\":",
        "\"functional_timeouts\":", "\"interp_steps_failed\":"}) {
    EXPECT_NE(line.find(field), std::string::npos) << field;
  }
}

TEST(WideEventJsonTest, FromJsonIgnoresUnknownFieldsAndRejectsGarbage) {
  WideEvent e;
  ASSERT_TRUE(FromJson(
      "{\"verdict\":\"correct\",\"future_field\":\"x\",\"future_num\":7,"
      "\"future_flag\":true}",
      &e));
  EXPECT_EQ(e.verdict, "correct");

  EXPECT_FALSE(FromJson("", &e));
  EXPECT_FALSE(FromJson("not json", &e));
  EXPECT_FALSE(FromJson("[1,2,3]", &e));
  EXPECT_FALSE(FromJson("{\"verdict\":", &e));
}

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Global().ResetForTest();
    Registry::Global().set_enabled(true);
    EventLog::Global().Clear();
    EventLog::Global().SetCapacity(EventLog::kDefaultCapacity);
    EventLog::Global().set_enabled(true);
  }
  void TearDown() override {
    EventLog::Global().set_enabled(false);
    EventLog::Global().Clear();
    Registry::Global().set_enabled(false);
    Registry::Global().ResetForTest();
  }
};

TEST_F(EventLogTest, FromJsonDecodesNonAsciiEscapesAsUtf8) {
  // ToJson copies UTF-8 bytes as they are, but other producers write \u
  // escapes; those decode exactly as they do in a POST /grade line.
  WideEvent e;
  ASSERT_TRUE(FromJson("{\"diagnostic\":\"\\u20ac \\ud83d\\ude00\"}", &e));
  EXPECT_EQ(e.diagnostic, "\xE2\x82\xAC \xF0\x9F\x98\x80");
}

TEST_F(EventLogTest, AppendStampsDenseSequenceNumbers) {
  WideEvent e;
  e.verdict = "correct";
  EventLog::Global().Append(e);
  EventLog::Global().Append(e);
  auto events = EventLog::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
}

TEST_F(EventLogTest, DisabledLogRecordsNothing) {
  EventLog::Global().set_enabled(false);
  EventLog::Global().Append(WideEvent());
  EXPECT_EQ(EventLog::Global().size(), 0u);
}

TEST_F(EventLogTest, OverflowKeepsNewestAndCountsDropsInContractMetric) {
  EventLog::Global().SetCapacity(4);
  Counter* dropped_total = Registry::Global().GetCounter(
      "jfeed_events_dropped_total",
      "Flight-recorder wide events overwritten by ring wrap-around");
  int64_t before = dropped_total->Value();

  for (int i = 0; i < 10; ++i) {
    WideEvent e;
    e.submission_id = "s-" + std::to_string(i);
    EventLog::Global().Append(e);
  }

  auto events = EventLog::Global().Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest: the last four appends survived, in order.
  EXPECT_EQ(events[0].submission_id, "s-6");
  EXPECT_EQ(events[3].submission_id, "s-9");
  EXPECT_EQ(events[0].seq, 7u);
  EXPECT_EQ(events[3].seq, 10u);
  EXPECT_EQ(EventLog::Global().DroppedCount(), 6);
  // The documented contract metric moved by exactly the drop count.
  EXPECT_EQ(dropped_total->Value() - before, 6);
}

TEST_F(EventLogTest, RenderNdjsonEmitsOneParsableLinePerEventNewestLast) {
  for (int i = 0; i < 3; ++i) {
    WideEvent e = FullEvent();
    e.submission_id = "s-" + std::to_string(i);
    EventLog::Global().Append(e);
  }
  std::string ndjson = EventLog::Global().RenderNdjson();
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < ndjson.size()) {
    size_t eol = ndjson.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // Every record newline-terminated.
    lines.push_back(ndjson.substr(pos, eol - pos));
    pos = eol + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  for (size_t i = 0; i < lines.size(); ++i) {
    WideEvent parsed;
    ASSERT_TRUE(FromJson(lines[i], &parsed)) << lines[i];
    EXPECT_EQ(parsed.submission_id, "s-" + std::to_string(i));
    // The routing key the multi-tenant /events filter keys on must survive
    // the ring + render round-trip, not just bare ToJson/FromJson.
    EXPECT_EQ(parsed.assignment, "assignment-1");
  }

  // limit keeps only the newest N records.
  std::string limited = EventLog::Global().RenderNdjson(1);
  WideEvent last;
  ASSERT_TRUE(FromJson(limited, &last));
  EXPECT_EQ(last.submission_id, "s-2");
}

TEST_F(EventLogTest, SetCapacityKeepsNewestEvents) {
  for (int i = 0; i < 6; ++i) {
    WideEvent e;
    e.submission_id = "s-" + std::to_string(i);
    EventLog::Global().Append(e);
  }
  EventLog::Global().SetCapacity(2);
  auto events = EventLog::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].submission_id, "s-4");
  EXPECT_EQ(events[1].submission_id, "s-5");
  EXPECT_EQ(EventLog::Global().capacity(), 2u);
}

}  // namespace
}  // namespace jfeed::obs
