#ifndef JFEED_JAVALANG_PARSER_H_
#define JFEED_JAVALANG_PARSER_H_

#include <string_view>

#include "javalang/ast.h"
#include "support/result.h"

namespace jfeed::java {

/// Parses a full submission: either a bare sequence of method declarations or
/// a single `class Name { ...methods... }` wrapper (modifiers `public`,
/// `private`, `static`, `final` are accepted and ignored).
Result<CompilationUnit> Parse(std::string_view source);

/// Parses a single expression.
Result<ExprPtr> ParseExpression(std::string_view source);

/// Parses a single statement.
Result<StmtPtr> ParseStatement(std::string_view source);

}  // namespace jfeed::java

#endif  // JFEED_JAVALANG_PARSER_H_
