// The paper's worked example end-to-end: grades the three Fig. 2
// submissions of Assignment 1 with the knowledge-base specification and
// prints the personalized feedback each student would receive.

#include <cstdio>

#include "core/submission_matcher.h"
#include "kb/assignments.h"

namespace {

constexpr const char* kFigure2a = R"(
void assignment1(int[] a) {
  int even = 0;
  int odd = 0;
  for (int i = 0; i <= a.length; i++) {
    if (i % 2 == 1)
      odd += a[i];
    if (i % 2 == 1)
      even *= a[i];
  }
  System.out.println(odd);
  System.out.println(even);
})";

constexpr const char* kFigure2b = R"(
void assignment1(int[] a) {
  int o = 0, e = 1;
  int i = 0;
  while (i < a.length) {
    if (i % 2 == 1)
      o += a[i];
    if (i % 2 == 0)
      e *= a[i];
    i++;
  }
  System.out.print(o + ", " + e);
})";

constexpr const char* kFigure2c = R"(
void assignment1(int[] a) {
  int x = 0, y = 1;
  for (int i = 0; i < a.length; i++)
    if (i % 2 == 1)
      x *= a[i];
  for (int i = 0; i < a.length; i++)
    if (i % 2 == 0)
      y += a[i];
  System.out.print("O: " + x + ", E: " + y);
})";

void Grade(const jfeed::kb::Assignment& assignment, const char* label,
           const char* source) {
  std::printf("==== %s ====\n", label);
  auto feedback = jfeed::core::MatchSubmissionSource(assignment.spec, source);
  if (!feedback.ok()) {
    std::printf("  could not grade: %s\n",
                feedback.status().ToString().c_str());
    return;
  }
  if (!feedback->matched) {
    std::printf("  submission does not adhere to the specification\n");
    return;
  }
  std::printf("%s", jfeed::core::RenderFeedback(feedback->comments).c_str());
  std::printf("Λ score: %.1f — verdict: %s\n\n", feedback->score,
              feedback->AllCorrect() ? "all correct" : "needs work");
}

}  // namespace

int main() {
  const auto& assignment =
      jfeed::kb::KnowledgeBase::Get().assignment("assignment1");
  std::printf("%s\n%s\n\n", assignment.spec.title.c_str(),
              assignment.description.c_str());
  Grade(assignment, "Fig. 2a (incorrect: bad init, bound, conditions)",
        kFigure2a);
  Grade(assignment, "Fig. 2b (correct)", kFigure2b);
  Grade(assignment, "Fig. 2c (incorrect: swapped accumulators)", kFigure2c);
  return 0;
}
