#ifndef JFEED_KB_SERIALIZATION_H_
#define JFEED_KB_SERIALIZATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/pattern.h"
#include "core/submission_matcher.h"
#include "kb/patterns.h"
#include "support/result.h"

namespace jfeed::kb {

/// Serializes a pattern to the knowledge-base text format (see below).
/// data/patterns.kb is a document of these blocks and *is* the pattern
/// library: the build embeds it and PatternLibrary::Get() parses it, so
/// instructors author patterns without touching C++:
///
///   pattern odd-positions
///     name: Accessing odd positions sequentially
///     var: x
///     var: s
///     node Assign
///       exact: x = 0
///       approx: x = -?\d+
///       correct: {x} is initialized to 0
///       incorrect: {x} should be initialized to 0
///     edge Data 1 2
///     present: You are correctly accessing ...
///     missing: You are not accessing ...
///   end
///
/// Blank lines and lines starting with `#` are ignored. Every parse error is
/// one line, "<file>:<line>: <rule>", where `file` is the name the caller
/// passes for the text.
std::string SerializePattern(const core::Pattern& pattern);

/// Parses one `pattern ... end` block. Fails with ParseError on malformed
/// input (unknown directive, bad node type, invalid template regex, edge
/// out of range, a declared variable that no template uses).
Result<core::Pattern> ParsePattern(std::string_view text);

/// Parses a multi-pattern document. Beyond each block's own rules, pattern
/// ids must be unique and no variable may belong to two patterns
/// (Definition 10 combines patterns' variables in containment constraints).
Result<std::vector<core::Pattern>> ParsePatterns(
    std::string_view text, std::string_view file = "<input>");

/// Serializes an assignment specification (pattern uses with expected
/// counts, and the three kinds of constraints) to the text format;
/// data/assignments.kb is a document of these blocks:
///
///   assignment assignment1
///     title: Assignment 1 ...
///     method assignment1
///       use odd-positions 1
///       use assign-print 2
///       constraint equality odd-access odd-positions 5 cond-accum-add 3
///         ok: ...
///         fail: ...
///       constraint edge sum-printed cond-accum-add 3 assign-print 1 Data
///       constraint containment c1 odd-positions 5 cond-accum-add
///         expr: c \+= s\[x\]$
///     end
///   end
///
/// Generators, functional suites and pattern variations are code-level
/// artifacts and are not serialized.
std::string SerializeSpec(const core::AssignmentSpec& spec);

/// Parses one `assignment ... end` block; pattern references are resolved
/// against `library` (unknown ids fail with NotFound). A constraint may
/// name only patterns its method `use`s on earlier lines, at node indexes
/// inside those patterns; constraint ids are unique within a method; a
/// containment constraint needs its `expr:` line.
Result<core::AssignmentSpec> ParseSpec(std::string_view text,
                                       const PatternLibrary& library);

/// One block of an assignments document and the line its header is on.
struct ParsedSpec {
  int line = 0;
  core::AssignmentSpec spec;
};

/// Parses a document of `assignment ... end` blocks with unique ids.
Result<std::vector<ParsedSpec>> ParseSpecs(std::string_view text,
                                           const PatternLibrary& library,
                                           std::string_view file);

}  // namespace jfeed::kb

#endif  // JFEED_KB_SERIALIZATION_H_
