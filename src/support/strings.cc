#include "support/strings.h"

#include <cctype>

namespace jfeed {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Trim(std::string_view text) { return std::string(TrimView(text)); }

std::string_view TrimView(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  size_t pos = 0;
  while (true) {
    size_t hit = text.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(text.substr(pos));
      return out;
    }
    out.append(text.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

std::string RegexEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  RegexEscapeAppend(text, &out);
  return out;
}

void RegexEscapeAppend(std::string_view text, std::string* out) {
  static constexpr std::string_view kMeta = R"(\^$.|?*+()[]{})";
  for (char c : text) {
    if (kMeta.find(c) != std::string_view::npos) out->push_back('\\');
    out->push_back(c);
  }
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

bool IsIdentPart(char c) {
  return IsIdentStart(c) || std::isdigit(static_cast<unsigned char>(c));
}

}  // namespace jfeed
