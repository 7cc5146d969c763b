#include "support/json.h"

#include <cctype>
#include <cstdint>

namespace jfeed {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Parses the 4 hex digits of a \uXXXX escape at *pos; -1 on malformed.
int32_t ParseHex4(std::string_view s, size_t* pos) {
  if (*pos + 4 > s.size()) return -1;
  int32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    int digit = HexDigit(s[*pos + i]);
    if (digit < 0) return -1;
    value = value * 16 + digit;
  }
  *pos += 4;
  return value;
}

void AppendUtf8(int32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

void AppendJsonString(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t plain = 0;  // Start of the run of bytes copied as they are.
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + plain, s.size() - plain);
  out->push_back('"');
}

void AppendFixed(double value, std::string* out) {
  // The longest spelling, -DBL_MAX's, is a sign, 309 digits and 7 more.
  char buf[320];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::fixed, 6)
                       .ptr);
}

Result<std::string> ParseJsonString(std::string_view s, size_t* pos) {
  if (*pos >= s.size() || s[*pos] != '"') {
    return Status::InvalidArgument("expected '\"' at offset " +
                                   std::to_string(*pos));
  }
  ++*pos;
  std::string out;
  while (*pos < s.size()) {
    char c = s[*pos];
    if (c == '"') {
      ++*pos;
      return out;
    }
    if (c != '\\') {
      out.push_back(c);
      ++*pos;
      continue;
    }
    if (++*pos >= s.size()) break;
    char esc = s[(*pos)++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        int32_t cp = ParseHex4(s, pos);
        if (cp < 0) {
          return Status::InvalidArgument("malformed \\u escape");
        }
        // Combine a surrogate pair when a low surrogate follows.
        if (cp >= 0xD800 && cp <= 0xDBFF && *pos + 1 < s.size() &&
            s[*pos] == '\\' && s[*pos + 1] == 'u') {
          size_t rewind = *pos;
          *pos += 2;
          int32_t low = ParseHex4(s, pos);
          if (low >= 0xDC00 && low <= 0xDFFF) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else {
            *pos = rewind;  // Unpaired; emit the high surrogate's bytes.
          }
        }
        AppendUtf8(cp, &out);
        break;
      }
      default:
        return Status::InvalidArgument(std::string("unknown escape '\\") +
                                       esc + "'");
    }
  }
  return Status::InvalidArgument("unterminated JSON string");
}

void SkipJsonSpace(std::string_view s, size_t* pos) {
  while (*pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[*pos]))) {
    ++*pos;
  }
}

}  // namespace jfeed
