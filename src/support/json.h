#ifndef JFEED_SUPPORT_JSON_H_
#define JFEED_SUPPORT_JSON_H_

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

#include "support/result.h"

// The one JSON string codec of every JSON surface (outcome and batch lines,
// wide events, /sloz, trace exports), plus the number spellings the reply
// lines use. There is deliberately no DOM: each reader keeps its own object
// loop built on these functions.

namespace jfeed {

/// Appends `s` to `*out` as a quoted JSON string. `"`, `\`, newline, CR
/// and TAB get their two-byte escapes, every other byte below 0x20 is
/// written \u00XX, and every other byte, UTF-8 included, is copied.
void AppendJsonString(std::string_view s, std::string* out);

/// Appends `value` in decimal: the bytes std::to_string(value) writes.
template <typename Int>
  requires std::is_integral_v<Int>
void AppendInt(Int value, std::string* out) {
  char buf[24];  // Enough for any 64-bit value and its sign.
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Appends `value` with six decimals: the bytes printf "%f", and so
/// std::to_string(value), writes, "nan" and "-inf" included.
void AppendFixed(double value, std::string* out);

/// Decodes the JSON string whose opening quote is at s[*pos] and leaves
/// *pos just past its closing quote. Every standard escape is decoded;
/// \uXXXX becomes UTF-8, a surrogate pair one four-byte sequence, and an
/// unpaired surrogate its own three bytes. A malformed escape or a missing
/// closing quote is kInvalidArgument.
Result<std::string> ParseJsonString(std::string_view s, size_t* pos);

/// Advances *pos past whitespace.
void SkipJsonSpace(std::string_view s, size_t* pos);

}  // namespace jfeed

#endif  // JFEED_SUPPORT_JSON_H_
