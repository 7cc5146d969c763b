#include "sched/batch_io.h"

#include "support/json.h"

namespace jfeed::sched {

Result<BatchLine> ParseBatchLine(std::string_view line) {
  size_t pos = 0;
  SkipJsonSpace(line, &pos);
  if (pos >= line.size()) {
    return Status::InvalidArgument("blank line");
  }
  BatchLine out;
  if (line[pos] == '"') {
    // Bare-string form: the whole line is the source.
    JFEED_ASSIGN_OR_RETURN(out.source, ParseJsonString(line, &pos));
    SkipJsonSpace(line, &pos);
    if (pos != line.size()) {
      return Status::InvalidArgument("trailing data after JSON string");
    }
    return out;
  }
  if (line[pos] != '{') {
    return Status::InvalidArgument(
        "expected a JSON object or string, got '" +
        std::string(1, line[pos]) + "'");
  }
  ++pos;
  bool have_source = false;
  bool first = true;
  for (;;) {
    SkipJsonSpace(line, &pos);
    if (pos < line.size() && line[pos] == '}') {
      ++pos;
      break;
    }
    if (!first) {
      if (pos >= line.size() || line[pos] != ',') {
        return Status::InvalidArgument("expected ',' or '}' in object");
      }
      ++pos;
      SkipJsonSpace(line, &pos);
    }
    first = false;
    std::string key;
    JFEED_ASSIGN_OR_RETURN(key, ParseJsonString(line, &pos));
    SkipJsonSpace(line, &pos);
    if (pos >= line.size() || line[pos] != ':') {
      return Status::InvalidArgument("expected ':' after key \"" + key +
                                     "\"");
    }
    ++pos;
    SkipJsonSpace(line, &pos);
    std::string value;
    JFEED_ASSIGN_OR_RETURN(value, ParseJsonString(line, &pos));
    if (key == "source") {
      out.source = std::move(value);
      have_source = true;
    } else if (key == "id") {
      out.id = std::move(value);
    } else if (key == "assignment") {
      out.assignment = std::move(value);
    }
    // Unknown string-valued keys are ignored.
  }
  SkipJsonSpace(line, &pos);
  if (pos != line.size()) {
    return Status::InvalidArgument("trailing data after JSON object");
  }
  if (!have_source) {
    return Status::InvalidArgument("object has no \"source\" key");
  }
  return out;
}

namespace {

/// Opens an output line with its id (null when the input line had none)
/// and its index.
void AppendLineHead(const std::string& id, size_t index, std::string* out) {
  *out += "{\"id\":";
  if (id.empty()) {
    *out += "null";
  } else {
    AppendJsonString(id, out);
  }
  *out += ",\"index\":";
  AppendInt(index, out);
}

}  // namespace

std::string BatchOutcomeToJson(const std::string& id, size_t index,
                               const service::GradingOutcome& outcome) {
  // Splice id/index into the outcome object: {"id":...,"index":N,<rest>.
  std::string out;
  AppendLineHead(id, index, &out);
  out.push_back(',');
  service::AppendOutcomeJsonMembers(outcome, &out);
  out.push_back('}');
  return out;
}

void AppendBatchOutcomeJson(const std::string& id, size_t index,
                            const std::string& assignment,
                            const service::GradingOutcome& outcome,
                            std::string* out) {
  AppendLineHead(id, index, out);
  *out += ",\"assignment\":";
  AppendJsonString(assignment, out);
  out->push_back(',');
  service::AppendOutcomeJsonMembers(outcome, out);
  out->push_back('}');
}

std::string BatchErrorToJson(size_t index, const Status& error) {
  std::string out;
  AppendLineHead("", index, &out);
  out += ",\"error\":";
  AppendJsonString(error.ToString(), &out);
  out += "}";
  return out;
}

std::string BatchRejectToJson(const std::string& id, size_t index,
                              const std::string& assignment, int code,
                              int retry_after_s, const Status& error) {
  std::string out;
  AppendLineHead(id, index, &out);
  out += ",\"assignment\":";
  AppendJsonString(assignment, &out);
  out += ",\"code\":" + std::to_string(code);
  if (retry_after_s > 0) {
    out += ",\"retry_after_s\":" + std::to_string(retry_after_s);
  }
  out += ",\"error\":";
  AppendJsonString(error.ToString(), &out);
  out += "}";
  return out;
}

}  // namespace jfeed::sched
