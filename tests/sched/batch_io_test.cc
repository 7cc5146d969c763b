// Tests for the NDJSON batch front end's line codec: object and bare-string
// input forms, escape handling, malformed-line classification, and output
// line rendering.

#include "sched/batch_io.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "kb/assignments.h"
#include "support/json.h"

namespace jfeed::sched {
namespace {

TEST(ParseBatchLineTest, ObjectFormWithIdAndSource) {
  auto line = ParseBatchLine(
      R"({"id": "s-17", "source": "void f() {\n  int x = 0;\n}"})");
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->id, "s-17");
  EXPECT_EQ(line->source, "void f() {\n  int x = 0;\n}");
}

TEST(ParseBatchLineTest, BareStringForm) {
  auto line = ParseBatchLine(R"("int f() { return 1; }")");
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->id, "");
  EXPECT_EQ(line->source, "int f() { return 1; }");
}

TEST(ParseBatchLineTest, IdIsOptionalUnknownKeysIgnored) {
  auto line = ParseBatchLine(
      R"({"student": "x", "source": "void f() {}", "lang": "java"})");
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->id, "");
  EXPECT_EQ(line->source, "void f() {}");
}

TEST(ParseBatchLineTest, EscapesDecode) {
  auto line = ParseBatchLine(R"({"source": "s = \"q\\tq\" + 'é';"})");
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->source, "s = \"q\\tq\" + '\xc3\xa9';");
}

TEST(ParseBatchLineTest, SurrogatePairDecodesToUtf8) {
  auto line = ParseBatchLine(R"("😀")");  // 😀 U+1F600
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->source, "\xf0\x9f\x98\x80");
}

TEST(ParseBatchLineTest, MalformedLinesAreInvalidArgument) {
  EXPECT_EQ(ParseBatchLine("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseBatchLine("   ").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseBatchLine("{\"id\": \"x\"}").status().code(),
            StatusCode::kInvalidArgument);  // No source key.
  EXPECT_EQ(ParseBatchLine("{\"source\": 42}").status().code(),
            StatusCode::kInvalidArgument);  // Non-string value.
  EXPECT_EQ(ParseBatchLine("\"unterminated").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseBatchLine("[1, 2]").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseBatchLine(R"("x" trailing)").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchOutcomeToJsonTest, SplicesIdAndIndexIntoOutcome) {
  service::GradingOutcome outcome;
  outcome.verdict = service::Verdict::kCorrect;
  std::string json = BatchOutcomeToJson("stu-1", 12, outcome);
  EXPECT_EQ(json.rfind("{\"id\":\"stu-1\",\"index\":12,\"verdict\":", 0), 0u)
      << json;
  EXPECT_EQ(json.back(), '}');
  // Null id when the input line carried none.
  EXPECT_EQ(BatchOutcomeToJson("", 0, outcome).rfind("{\"id\":null,", 0), 0u);
}

/// A graded outcome touching every member of the reply line: comments of
/// each kind with quotes and a newline, a failure diagnostic, a functional
/// verdict, stage timings (one stage twice) and trace ids.
service::GradingOutcome FullOutcome() {
  service::GradingOutcome outcome;
  outcome.verdict = service::Verdict::kIncorrect;
  outcome.tier = service::FeedbackTier::kAstOnly;
  outcome.stage_reached = service::Stage::kFunctional;
  outcome.failure = service::FailureClass::kTimeout;
  outcome.diagnostic = "Timeout: step budget of 300000 exhausted\tin \"f\"";
  outcome.feedback.matched = true;
  outcome.feedback.score = 2.5;
  outcome.feedback.match_stats.steps = 123456789012;
  outcome.feedback.match_stats.regex_checks = 42;
  outcome.feedback.comments.push_back(
      {core::FeedbackKind::kCorrect, "p_loop", "assignment1",
       "The loop \"for\" visits\nevery element.", {}});
  outcome.feedback.comments.push_back(
      {core::FeedbackKind::kIncorrect, "c_sum", "assignment1",
       "The sum is never returned.", {}});
  outcome.feedback.comments.push_back(
      {core::FeedbackKind::kNotExpected, "p_print", "assignment1", "", {}});
  outcome.functional_ran = true;
  outcome.functional.passed = false;
  outcome.functional.tests_run = 5;
  outcome.functional.tests_failed = 2;
  outcome.functional.first_failure = "test 3: expected 6, got 5";
  outcome.timings.push_back({service::Stage::kParse, 0.0123456, Status::OK()});
  outcome.timings.push_back({service::Stage::kEpdg, 1.0000005, Status::OK()});
  outcome.timings.push_back(
      {service::Stage::kMatch, 0.0078125, Status::InvalidArgument("fell")});
  outcome.timings.push_back({service::Stage::kMatch, 3.25, Status::OK()});
  outcome.timings.push_back(
      {service::Stage::kFunctional, 1234.5678901,
       Status::Timeout("step budget")});
  outcome.arena_bytes_peak = 65536;
  outcome.methods_reused = 1;
  outcome.methods_regraded = 2;
  outcome.trace_id = "0af7651916cd43dd8448eb211c80319c";
  outcome.span_id = "b7ad6b7169203331";
  return outcome;
}

TEST(BatchOutcomeToJsonTest, FullReplyLineIsPinned) {
  // The whole line the daemon appends for a graded or cache-served line,
  // after whatever the response body already holds.
  std::string body = "earlier line\n";
  AppendBatchOutcomeJson("stu-\"1\"", 7, "assignment1", FullOutcome(), &body);
  EXPECT_EQ(body,
            "earlier line\n"
            "{\"id\":\"stu-\\\"1\\\"\",\"index\":7,\"assignment\":\"assignment1"
            "\",\"verdict\":\"incorrect\",\"trace_id\":\"0af7651916cd43dd8448eb"
            "211c80319c\",\"span_id\":\"b7ad6b7169203331\",\"tier\":\"ast_only"
            "\",\"stage_reached\":\"functional\",\"failure_class\":\"timeout\","
            "\"degraded\":true,\"diagnostic\":\"Timeout: step budget of 300000 "
            "exhausted\\tin \\\"f\\\"\",\"matched\":true,\"score\":2.500000,\"m"
            "atch_steps\":123456789012,\"match_regex_checks\":42,\"arena_bytes_"
            "peak\":65536,\"methods_reused\":1,\"methods_regraded\":2,\"comment"
            "s\":[{\"kind\":\"Correct\",\"source\":\"p_loop\",\"message\":\"The"
            " loop \\\"for\\\" visits\\nevery element.\"},{\"kind\":\"Incorrect"
            "\",\"source\":\"c_sum\",\"message\":\"The sum is never returned.\""
            "},{\"kind\":\"NotExpected\",\"source\":\"p_print\",\"message\":\""
            "\"}],\"functional\":{\"passed\":false,\"tests_run\":5,\"tests_fail"
            "ed\":2,\"first_failure\":\"test 3: expected 6, got 5\"},\"stage_ti"
            "mings\":{\"parse\":0.012346,\"epdg\":1.000001,\"match\":3.257812,"
            "\"functional\":1234.567890},\"timings_ms\":[{\"stage\":\"parse\","
            "\"ms\":0.012346,\"status\":\"OK\"},{\"stage\":\"epdg\",\"ms\":1.00"
            "0001,\"status\":\"OK\"},{\"stage\":\"match\",\"ms\":0.007812,\"sta"
            "tus\":\"InvalidArgument: fell\"},{\"stage\":\"match\",\"ms\":3.250"
            "000,\"status\":\"OK\"},{\"stage\":\"functional\",\"ms\":1234.56789"
            "0,\"status\":\"Timeout: step budget\"}]}");
}

/// True when `s` is well-formed UTF-8 (RFC 3629).
bool IsUtf8(std::string_view s) {
  for (size_t i = 0; i < s.size();) {
    const auto b = static_cast<unsigned char>(s[i]);
    size_t length = b < 0x80 ? 1 : b < 0xC2 ? 0 : b < 0xE0 ? 2 : b < 0xF0 ? 3
                                                 : b < 0xF5 ? 4 : 0;
    if (length == 0 || i + length > s.size()) return false;
    uint32_t cp = length == 1 ? b : b & (0x7F >> length);
    for (size_t k = 1; k < length; ++k) {
      const auto c = static_cast<unsigned char>(s[i + k]);
      if ((c & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (c & 0x3F);
    }
    const uint32_t smallest[] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < smallest[length] || cp > 0x10FFFF ||
        (cp >= 0xD800 && cp <= 0xDFFF)) {
      return false;
    }
    i += length;
  }
  return true;
}

TEST(BatchOutcomeToJsonTest, NonAsciiDiagnosticKeepsTheLineUtf8) {
  // Student code with a non-ASCII character where the lexer stops: the
  // reply line must stay UTF-8, and its diagnostic names the character.
  const kb::Assignment& assignment =
      kb::KnowledgeBase::Get().assignment("assignment1");
  const struct {
    const char* insert;
    const char* named;
  } kCases[] = {
      {"  int caf\xC3\xA9 = 1;\n", "unexpected character '\xC3\xA9'"},
      {"  s = \xE2\x80\x9Chi\xE2\x80\x9D;\n",
       "unexpected character '\xE2\x80\x9C'"},
      {"  s = \"\\\xC3\xA9\";\n", "unsupported escape \\\xC3\xA9"},
      {"  int x\xC3 = 1;\n", "unexpected character '\\xC3'"},
  };
  service::GradingPipeline pipeline(assignment);
  for (const auto& c : kCases) {
    std::string source = assignment.Reference();
    source.insert(source.find('\n') + 1, c.insert);
    std::string line;
    AppendBatchOutcomeJson("s-1", 0, assignment.id, pipeline.Grade(source),
                           &line);
    EXPECT_TRUE(IsUtf8(line)) << line;
    const std::string key = "\"diagnostic\":";
    size_t pos = line.find(key);
    ASSERT_NE(pos, std::string::npos) << line;
    pos += key.size();
    auto diagnostic = ParseJsonString(line, &pos);
    ASSERT_TRUE(diagnostic.ok()) << diagnostic.status().ToString();
    EXPECT_NE(diagnostic->find(c.named), std::string::npos) << *diagnostic;
  }
}

TEST(BatchErrorToJsonTest, RendersError) {
  std::string json =
      BatchErrorToJson(3, Status::InvalidArgument("bad \"line\""));
  EXPECT_EQ(json,
            "{\"id\":null,\"index\":3,"
            "\"error\":\"InvalidArgument: bad \\\"line\\\"\"}");
}

}  // namespace
}  // namespace jfeed::sched
