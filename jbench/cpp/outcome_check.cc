#include "outcome_check.h"

#include <cstdlib>
#include <utility>
#include <vector>

#include "core/feedback.h"

namespace jbench {

namespace {

using jfeed::service::GradingOutcome;

/// Appends one field as <length>:<text> so no field's content can be
/// mistaken for a separator.
void AppendField(std::string_view text, std::string* out) {
  *out += std::to_string(text.size());
  out->push_back(':');
  out->append(text);
}

/// Minimal JSON document model: enough to read the daemon's reply lines.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  const Json* Find(std::string_view key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view in) : in_(in) {}

  bool ParseDocument(Json* out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == in_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\r' ||
            in_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseLiteral(std::string_view word) {
    if (in_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  static int Hex(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  bool ParseString(std::string* out) {
    SkipSpace();
    if (pos_ >= in_.size() || in_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) return false;
      char esc = in_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > in_.size()) return false;
          int cp = 0;
          for (int i = 0; i < 4; ++i) {
            int digit = Hex(in_[pos_ + i]);
            if (digit < 0) return false;
            cp = cp * 16 + digit;
          }
          pos_ += 4;
          // The daemon escapes only control bytes this way.
          if (cp >= 0x80) return false;
          out->push_back(static_cast<char>(cp));
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > 32) return false;
    SkipSpace();
    if (pos_ >= in_.size()) return false;
    char c = in_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = Json::Type::kObject;
      if (Consume('}')) return true;
      do {
        std::string key;
        Json value;
        if (!ParseString(&key) || !Consume(':') ||
            !ParseValue(&value, depth + 1)) {
          return false;
        }
        out->members.emplace_back(std::move(key), std::move(value));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = Json::Type::kArray;
      if (Consume(']')) return true;
      do {
        Json item;
        if (!ParseValue(&item, depth + 1)) return false;
        out->items.push_back(std::move(item));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return ParseString(&out->text);
    }
    if (c == 't' || c == 'f') {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return ParseLiteral(c == 't' ? "true" : "false");
    }
    if (c == 'n') return ParseLiteral("null");
    std::string number(in_.substr(pos_, 32));
    char* end = nullptr;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(number.c_str(), &end);
    if (end == number.c_str()) return false;
    pos_ += static_cast<size_t>(end - number.c_str());
    return true;
  }

  std::string_view in_;
  size_t pos_ = 0;
};

std::string StringMember(const Json& object, std::string_view key) {
  const Json* value = object.Find(key);
  return value != nullptr && value->type == Json::Type::kString ? value->text
                                                                : "";
}

}  // namespace

std::string CheckedFields(const GradingOutcome& outcome) {
  std::string out;
  AppendField(jfeed::service::VerdictName(outcome.verdict), &out);
  AppendField(jfeed::service::FeedbackTierName(outcome.tier), &out);
  AppendField(jfeed::service::FailureClassName(outcome.failure), &out);
  out += std::to_string(outcome.feedback.comments.size());
  for (const auto& comment : outcome.feedback.comments) {
    AppendField(jfeed::core::FeedbackKindName(comment.kind), &out);
    AppendField(comment.message, &out);
  }
  if (outcome.functional_ran) {
    out += outcome.functional.passed ? "|P" : "|F";
    out += std::to_string(outcome.functional.tests_run) + "/" +
           std::to_string(outcome.functional.tests_failed);
  } else {
    out += "|-";
  }
  return out;
}

ReplyLine ParseReplyLine(std::string_view line) {
  ReplyLine reply;
  Json doc;
  if (!JsonParser(line).ParseDocument(&doc) ||
      doc.type != Json::Type::kObject || doc.Find("error") != nullptr ||
      doc.Find("code") != nullptr) {
    return reply;
  }
  const Json* comments = doc.Find("comments");
  const Json* stages = doc.Find("stage_timings");
  if (comments == nullptr || comments->type != Json::Type::kArray ||
      doc.Find("verdict") == nullptr) {
    return reply;
  }
  reply.graded = true;
  reply.failure_class = StringMember(doc, "failure_class");
  if (stages != nullptr) {
    for (const auto& [name, value] : stages->members) {
      reply.stage_ms += value.number;
    }
  }
  std::string& out = reply.checked;
  AppendField(StringMember(doc, "verdict"), &out);
  AppendField(StringMember(doc, "tier"), &out);
  AppendField(reply.failure_class, &out);
  out += std::to_string(comments->items.size());
  for (const Json& comment : comments->items) {
    AppendField(StringMember(comment, "kind"), &out);
    AppendField(StringMember(comment, "message"), &out);
  }
  const Json* functional = doc.Find("functional");
  if (functional != nullptr && functional->type == Json::Type::kObject) {
    const Json* passed = functional->Find("passed");
    const Json* run = functional->Find("tests_run");
    const Json* failed = functional->Find("tests_failed");
    out += passed != nullptr && passed->boolean ? "|P" : "|F";
    out += std::to_string(run != nullptr ? static_cast<int>(run->number) : -1) +
           "/" +
           std::to_string(failed != nullptr ? static_cast<int>(failed->number)
                                            : -1);
  } else {
    out += "|-";
  }
  return reply;
}

uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace jbench
