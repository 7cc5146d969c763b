#ifndef JBENCH_OUTCOME_CHECK_H_
#define JBENCH_OUTCOME_CHECK_H_

// The benchmark's output check: every outcome a workload receives is
// compared with a cold sequential GradingPipeline::Grade of the same source.
// Both sides are reduced to one canonical text of the fields feedback
// depends on — verdict, tier, failure class, comment kinds and texts, and
// the functional verdict's passed/tests_run/tests_failed. Timings, trace
// ids and diagnostic text are left out, so a change that only moves time
// (or rewords a budget message) passes while one verdict flip fails.

#include <cstdint>
#include <string>
#include <string_view>

#include "service/pipeline.h"

namespace jbench {

/// Canonical checked fields of an in-process outcome.
std::string CheckedFields(const jfeed::service::GradingOutcome& outcome);

/// What the benchmark reads out of one POST /grade reply line.
struct ReplyLine {
  /// True when the line is a graded outcome; false for a per-line error
  /// object (shed, unknown assignment, malformed input) or unparseable text.
  bool graded = false;
  std::string failure_class;  ///< Outcome failure class when graded.
  double stage_ms = 0.0;      ///< Sum of the reply's stage_timings.
  std::string checked;        ///< CheckedFields of the reply when graded.
};

/// Parses one NDJSON reply line of the daemon's /grade endpoint.
ReplyLine ParseReplyLine(std::string_view line);

/// 64-bit FNV-1a, used to keep one checked-fields digest per outcome
/// instead of the text.
uint64_t Fnv1a(std::string_view text);

}  // namespace jbench

#endif  // JBENCH_OUTCOME_CHECK_H_
