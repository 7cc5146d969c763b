#ifndef JFEED_TESTING_FUNCTIONAL_H_
#define JFEED_TESTING_FUNCTIONAL_H_

#include <map>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "javalang/ast.h"
#include "support/result.h"

namespace jfeed::testing {

/// A functional test suite for one assignment: the entry method, the input
/// tuples it is invoked with, and the in-memory files visible to Scanner.
/// Expected outputs are produced by running the reference solution — the
/// same self-consistent oracle construction the paper uses ("We generated a
/// set of functional tests to be performed over the previous submissions").
struct FunctionalSuite {
  std::string method;  ///< Entry method name.
  std::vector<std::vector<interp::Value>> inputs;
  std::map<std::string, std::string> files;
  interp::ExecOptions exec_options;
};

/// Verdict of running a suite over one submission.
struct FunctionalVerdict {
  bool passed = false;   ///< All tests produced the expected stdout.
  int tests_run = 0;
  int tests_failed = 0;  ///< Mismatched output or runtime error/timeout.
  std::string first_failure;  ///< Diagnostic for the first failing test.
  // Failure-class counters (filled by RunSuiteGuarded) so the grading
  // service can tell "wrong answer" from "blew a budget".
  int timeouts = 0;            ///< Tests killed by a time budget.
  int resource_exhausted = 0;  ///< Tests killed by a space budget.
  bool suite_deadline_hit = false;  ///< Suite wall budget expired mid-run.
  // Interpreter resource spend summed over the suite's successful test
  // executions — the numbers the per-submission flight recorder surfaces
  // as interp_*. A call that fails (runtime error, timeout, exhausted
  // budget) reports no usage here...
  int64_t interp_steps = 0;
  int64_t interp_heap_bytes = 0;
  int64_t interp_output_bytes = 0;
  /// ...but its steps are summed here, so killed tests (the largest cost)
  /// stay visible. A step-budget kill counts exactly its max_steps.
  int64_t interp_steps_failed = 0;
};

/// Runs the reference solution over the suite inputs and returns the
/// expected stdout per input. Fails if the reference itself errors.
Result<std::vector<std::string>> ComputeExpectedOutputs(
    const java::CompilationUnit& reference, const FunctionalSuite& suite);

/// Runs the suite over `submission`, comparing against `expected` (from
/// ComputeExpectedOutputs). Runtime errors and timeouts count as failures,
/// exactly like a crashing JUnit test would.
FunctionalVerdict RunSuite(const java::CompilationUnit& submission,
                           const FunctionalSuite& suite,
                           const std::vector<std::string>& expected);

/// RunSuite with the grading service's resource guards: each test runs
/// under `exec` (overriding the suite's own options) and the suite as a
/// whole is abandoned once `suite_deadline_ms` of wall-clock has elapsed
/// (0 = unlimited; checked between tests). Abandoned tests are not counted
/// as run; the verdict carries `suite_deadline_hit` plus per-class failure
/// counters instead.
FunctionalVerdict RunSuiteGuarded(const java::CompilationUnit& submission,
                                  const FunctionalSuite& suite,
                                  const std::vector<std::string>& expected,
                                  const interp::ExecOptions& exec,
                                  int64_t suite_deadline_ms = 0);

/// Generates the synthetic stand-in for the RIT `summer_olympics.txt`
/// dataset: `records` 5-field records (first-name, last-name, medal type
/// 1..3, year, separator token), deterministically derived from `seed`.
std::string GenerateOlympicsFile(int records, uint64_t seed);

}  // namespace jfeed::testing

#endif  // JFEED_TESTING_FUNCTIONAL_H_
