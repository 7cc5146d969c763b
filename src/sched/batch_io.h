#ifndef JFEED_SCHED_BATCH_IO_H_
#define JFEED_SCHED_BATCH_IO_H_

#include <string>
#include <string_view>

#include "service/pipeline.h"
#include "support/result.h"

namespace jfeed::sched {

/// One decoded input line of the NDJSON batch front end (`grade --batch`,
/// jfeedd POST /grade).
struct BatchLine {
  std::string id;          ///< Caller-chosen submission id; may be empty.
  std::string assignment;  ///< Routing key for multi-tenant jfeedd; may be
                           ///< empty (single-tenant callers omit it).
  std::string source;      ///< The Java submission text.
};

/// Parses one NDJSON input line. Two accepted shapes:
///   {"id": "s-17", "assignment": "assignment3", "source": "..."}  object
///   "void f() { ... }"                                       bare-string
/// In the object form `source` is required, `id` and `assignment` optional,
/// unknown keys with string values are ignored (forward compatibility);
/// values must be JSON strings. Standard JSON string escapes are decoded,
/// including \uXXXX (with surrogate pairs). Blank lines yield
/// kInvalidArgument — callers typically skip them before calling.
Result<BatchLine> ParseBatchLine(std::string_view line);

/// Renders one NDJSON output line: the GradingOutcome JSON with "id" and
/// "index" (position in the input stream) prepended, so outputs remain
/// joinable with inputs even though they are emitted in input order anyway.
std::string BatchOutcomeToJson(const std::string& id, size_t index,
                               const service::GradingOutcome& outcome);
/// Appends the multi-tenant form of that line to `*out` in place: it also
/// stamps, after "index", the "assignment" the line was routed to.
void AppendBatchOutcomeJson(const std::string& id, size_t index,
                            const std::string& assignment,
                            const service::GradingOutcome& outcome,
                            std::string* out);

/// Renders the NDJSON error line for an input line that failed to parse.
std::string BatchErrorToJson(size_t index, const Status& error);

/// Renders the NDJSON error line for an input line the multi-tenant daemon
/// refused: `code` is the per-line HTTP-style status (404 unknown
/// assignment, 429 admission shed), and a positive `retry_after_s` adds a
/// "retry_after_s" hint (the shed path). The line still carries id/index/
/// assignment so clients can join rejects back to their inputs.
std::string BatchRejectToJson(const std::string& id, size_t index,
                              const std::string& assignment, int code,
                              int retry_after_s, const Status& error);

}  // namespace jfeed::sched

#endif  // JFEED_SCHED_BATCH_IO_H_
