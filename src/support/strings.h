#ifndef JFEED_SUPPORT_STRINGS_H_
#define JFEED_SUPPORT_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace jfeed {

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on any occurrence of `sep` (single character). Empty pieces
/// are kept, so Split("a,,b", ',') == {"a", "", "b"}.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);
/// Trim without the copy: a view into `text`.
std::string_view TrimView(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Replaces every occurrence of `from` (must be non-empty) with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

/// Escapes regex metacharacters so `text` matches literally inside a regex.
std::string RegexEscape(std::string_view text);

/// Appends the escaped form of `text` to `*out` without allocating a
/// temporary (matcher hot path).
void RegexEscapeAppend(std::string_view text, std::string* out);

/// True when `c` can start a Java identifier.
bool IsIdentStart(char c);
/// True when `c` can continue a Java identifier.
bool IsIdentPart(char c);

}  // namespace jfeed

#endif  // JFEED_SUPPORT_STRINGS_H_
