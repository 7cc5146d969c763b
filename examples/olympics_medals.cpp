// Reproduces the paper's Fig. 7 discussion: a submission to
// rit-all-g-medals that is *functionally correct* — it passes every test
// because duplicated position conditions still advance the Scanner the
// right number of times — but semantically incorrect. Functional testing
// says "correct"; the pattern/constraint feedback pinpoints the confusion.

#include <cstdio>

#include "core/submission_matcher.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "testing/functional.h"

namespace {

// Fig. 7 (adapted to our record layout): the first-name position
// (i % 5 == 1) is read twice — consuming both name tokens — and both
// medal/year reads happen at i % 5 == 3, yet the token stream stays
// perfectly aligned, so every functional test passes.
constexpr const char* kFigure7 = R"(
void countGoldMedals(int year) {
  int i = 1;
  int medals = 0;
  int p = 0;
  int y = 0;
  String e = "";
  Scanner s = new Scanner(new File("summer_olympics.txt"));
  while (s.hasNext()) {
    if (i % 5 == 1)
      e = s.next();
    if (i % 5 == 1)
      e = s.next();
    if (i % 5 == 3)
      p = s.nextInt();
    if (i % 5 == 3)
      y = s.nextInt();
    if (i % 5 == 0)
      e = s.next();
    if (i % 5 == 0 && y == year && p == 1)
      medals += 1;
    i++;
  }
  s.close();
  System.out.println(medals);
})";

}  // namespace

int main() {
  namespace testing = jfeed::testing;
  namespace java = jfeed::java;

  const auto& assignment =
      jfeed::kb::KnowledgeBase::Get().assignment("rit-all-g-medals");
  std::printf("%s\n\nSubmission (Fig. 7, adapted):\n%s\n\n",
              assignment.spec.title.c_str(), kFigure7);

  auto submission = java::Parse(kFigure7);
  if (!submission.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 submission.status().ToString().c_str());
    return 1;
  }
  auto reference = java::Parse(assignment.Reference());
  auto expected =
      testing::ComputeExpectedOutputs(*reference, assignment.suite);
  if (!expected.ok()) return 1;

  testing::FunctionalVerdict verdict =
      testing::RunSuite(*submission, assignment.suite, *expected);
  std::printf("Functional testing: %d/%d tests passed -> %s\n",
              verdict.tests_run - verdict.tests_failed, verdict.tests_run,
              verdict.passed ? "CORRECT" : "incorrect");
  if (!verdict.passed) {
    std::printf("  first failure: %s\n", verdict.first_failure.c_str());
  }

  auto feedback =
      jfeed::core::MatchSubmission(assignment.spec, *submission);
  if (!feedback.ok()) return 1;
  std::printf("\nPersonalized feedback (semantic view):\n%s",
              jfeed::core::RenderFeedback(feedback->comments).c_str());
  std::printf("\nVerdict: %s — %s\n",
              feedback->AllCorrect() ? "all correct" : "semantic problems",
              verdict.passed && !feedback->AllCorrect()
                  ? "functionally correct but semantically incorrect, "
                    "exactly the class the paper's D column counts"
                  : "functional and semantic verdicts agree");
  return 0;
}
