#include "testing/functional.h"

#include <chrono>

#include "support/strings.h"

namespace jfeed::testing {

namespace {

/// Outputs are compared modulo leading/trailing whitespace, so a final
/// print vs println does not count as a functional difference.
std::string Normalize(const std::string& text) { return Trim(text); }

}  // namespace

Result<std::vector<std::string>> ComputeExpectedOutputs(
    const java::CompilationUnit& reference, const FunctionalSuite& suite) {
  interp::Interpreter interp(reference, suite.files);
  std::vector<std::string> expected;
  expected.reserve(suite.inputs.size());
  for (const auto& input : suite.inputs) {
    auto result = interp.Call(suite.method, input, suite.exec_options);
    if (!result.ok()) {
      return Status::Internal("reference solution failed on a test input: " +
                              result.status().ToString());
    }
    expected.push_back(result->stdout_text);
  }
  return expected;
}

FunctionalVerdict RunSuite(const java::CompilationUnit& submission,
                           const FunctionalSuite& suite,
                           const std::vector<std::string>& expected) {
  return RunSuiteGuarded(submission, suite, expected, suite.exec_options,
                         /*suite_deadline_ms=*/0);
}

FunctionalVerdict RunSuiteGuarded(const java::CompilationUnit& submission,
                                  const FunctionalSuite& suite,
                                  const std::vector<std::string>& expected,
                                  const interp::ExecOptions& exec,
                                  int64_t suite_deadline_ms) {
  FunctionalVerdict verdict;
  interp::Interpreter interp(submission, suite.files);
  auto suite_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < suite.inputs.size(); ++i) {
    if (suite_deadline_ms > 0) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - suite_start);
      if (elapsed.count() > suite_deadline_ms) {
        // Abandon the rest of the suite: one pathological submission must
        // not hold the grading pipeline beyond its functional-stage budget.
        verdict.suite_deadline_hit = true;
        if (verdict.first_failure.empty()) {
          verdict.first_failure =
              "suite wall budget of " + std::to_string(suite_deadline_ms) +
              "ms exceeded after " + std::to_string(i) + " tests";
        }
        break;
      }
    }
    ++verdict.tests_run;
    auto result = interp.Call(suite.method, suite.inputs[i], exec);
    bool failed;
    std::string diagnostic;
    if (!result.ok()) {
      failed = true;
      diagnostic = result.status().ToString();
      verdict.interp_steps_failed += interp.last_call_steps();
      if (result.status().code() == StatusCode::kTimeout) {
        ++verdict.timeouts;
      } else if (result.status().code() == StatusCode::kResourceExhausted) {
        ++verdict.resource_exhausted;
      }
    } else {
      verdict.interp_steps += result->steps;
      verdict.interp_heap_bytes += result->heap_bytes;
      verdict.interp_output_bytes += result->output_bytes;
      failed = Normalize(result->stdout_text) != Normalize(expected[i]);
      if (failed) {
        diagnostic = "expected \"" + expected[i] + "\", got \"" +
                     result->stdout_text + "\"";
      }
    }
    if (failed) {
      ++verdict.tests_failed;
      if (verdict.first_failure.empty()) {
        verdict.first_failure =
            "test " + std::to_string(i) + ": " + diagnostic;
      }
    }
  }
  verdict.passed = verdict.tests_failed == 0 && verdict.tests_run > 0 &&
                   !verdict.suite_deadline_hit;
  return verdict;
}

std::string GenerateOlympicsFile(int records, uint64_t seed) {
  static constexpr const char* kFirst[] = {"usain",  "michael", "simone",
                                           "katie",  "allyson", "carl",
                                           "nadia",  "mark",    "florence",
                                           "jesse"};
  static constexpr const char* kLast[] = {"bolt",    "phelps", "biles",
                                          "ledecky", "felix",  "lewis",
                                          "comaneci", "spitz",  "griffith",
                                          "owens"};
  // xorshift64* for deterministic, platform-independent pseudo-randomness.
  uint64_t state = seed != 0 ? seed : 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  };
  std::string out;
  for (int i = 0; i < records; ++i) {
    uint64_t r = next();
    const char* first = kFirst[r % 10];
    const char* last = kLast[(r >> 8) % 10];
    int medal = static_cast<int>((r >> 16) % 3) + 1;       // 1..3
    int year = 1896 + 4 * static_cast<int>((r >> 24) % 31);  // 1896..2016
    out += first;
    out += ' ';
    out += last;
    out += ' ';
    out += std::to_string(medal);
    out += ' ';
    out += std::to_string(year);
    out += " #\n";  // '#' is the record separator token.
  }
  return out;
}

}  // namespace jfeed::testing
