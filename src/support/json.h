#ifndef JFEED_SUPPORT_JSON_H_
#define JFEED_SUPPORT_JSON_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "support/result.h"

// The one JSON string codec of every JSON surface (outcome and batch lines,
// wide events, /sloz, trace exports). There is deliberately no DOM: each
// reader keeps its own object loop built on these functions.

namespace jfeed {

/// Appends `s` to `*out` as a quoted JSON string. `"`, `\`, newline, CR
/// and TAB get their two-byte escapes, every other byte below 0x20 is
/// written \u00XX, and every other byte, UTF-8 included, is copied.
void AppendJsonString(std::string_view s, std::string* out);

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
