// Explores the synthetic-submission search space of an assignment: the
// paper's evaluation methodology made concrete. Prints the error model, a
// few generated submissions with their functional verdict and feedback
// verdict, and the agreement statistics over a sample.

#include <cstdio>
#include <cstring>

#include "core/submission_matcher.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "synth/generator.h"
#include "testing/functional.h"

int main(int argc, char** argv) {
  namespace testing = jfeed::testing;
  namespace java = jfeed::java;

  const char* id = argc > 1 ? argv[1] : "esc-LAB-3-P1-V1";
  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  const auto& assignment = kb.assignment(id);

  std::printf("%s — %s\n\n", assignment.id.c_str(),
              assignment.spec.title.c_str());
  std::printf("Error model (%zu sites, search space %llu):\n",
              assignment.generator.sites().size(),
              static_cast<unsigned long long>(
                  assignment.generator.SpaceSize()));
  for (const auto& site : assignment.generator.sites()) {
    std::printf("  %-12s:", site.name.c_str());
    for (size_t v = 0; v < site.variants.size(); ++v) {
      std::printf(" %s[%s]", v == 0 ? "*" : "",
                  site.variants[v].empty() ? "<empty>"
                                           : site.variants[v].c_str());
    }
    std::printf("\n");
  }

  auto reference = java::Parse(assignment.Reference());
  auto expected =
      testing::ComputeExpectedOutputs(*reference, assignment.suite);
  if (!expected.ok()) {
    std::fprintf(stderr, "reference broken: %s\n",
                 expected.status().ToString().c_str());
    return 1;
  }

  std::printf("\nSampling 500 submissions...\n");
  int func_pass = 0, feedback_pos = 0, agree = 0, shown = 0, total = 0;
  for (uint64_t index :
       jfeed::synth::SampleIndexes(assignment.generator.SpaceSize(), 500)) {
    std::string source = assignment.generator.Generate(index);
    auto unit = java::Parse(source);
    if (!unit.ok()) continue;
    ++total;
    bool passed =
        testing::RunSuite(*unit, assignment.suite, *expected).passed;
    auto feedback = jfeed::core::MatchSubmission(assignment.spec, *unit);
    bool positive = feedback.ok() && feedback->AllCorrect();
    func_pass += passed;
    feedback_pos += positive;
    agree += passed == positive;
    if (passed != positive && shown < 3) {
      ++shown;
      std::printf(
          "\n--- disagreement at index %llu (errors injected: %d) ---\n"
          "functional: %s, feedback: %s\n%s",
          static_cast<unsigned long long>(index),
          assignment.generator.ErrorCount(index),
          passed ? "PASS" : "fail", positive ? "positive" : "negative",
          source.c_str());
    }
  }
  std::printf(
      "\nOut of %d submissions: %d pass functional tests, %d get "
      "all-positive feedback,\n%d agree (%.1f%%) — the disagreements are "
      "Table I's column D.\n",
      total, func_pass, feedback_pos, agree, 100.0 * agree / total);
  return 0;
}
