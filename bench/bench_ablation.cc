// Ablations of the design choices DESIGN.md calls out:
//   (a) the node-ordering heuristic of the backtracking matcher (Sec. IV:
//       "the performance depends on ... the processing order of the
//       pattern nodes");
//   (b) approximate expressions r̂ — without them, near-miss submissions
//       lose their Incorrect diagnosis and fall back to NotExpected;
//   (c) constraints — without them, Λ cannot separate submissions that
//       contain all the right pieces wired up wrongly;
//   (d) pattern variations (Sec. VII extension) — with them, the
//       alternative i += 2 strategy is accepted.

#include <chrono>
#include <cstdio>

#include "core/pattern_matcher.h"
#include "core/submission_matcher.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "kb/extensions.h"
#include "pdg/epdg.h"

namespace {

namespace core = jfeed::core;
namespace java = jfeed::java;

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

void OrderingAblation() {
  std::printf("(a) node-ordering heuristic (backtracking steps per "
              "pattern, Assignment 1 reference)\n");
  const auto& assignment =
      jfeed::kb::KnowledgeBase::Get().assignment("assignment1");
  auto unit = java::Parse(assignment.Reference());
  auto graph = jfeed::pdg::BuildEpdg(unit->methods[0]);
  std::printf("    %-18s %12s %12s\n", "pattern", "heuristic", "naive");
  for (const char* id :
       {"odd-positions", "even-positions", "cond-accum-add",
        "assign-print"}) {
    const core::Pattern& pattern = jfeed::kb::PatternLibrary::Get().at(id);
    core::MatchOptions with, without;
    without.use_ordering_heuristic = false;
    core::MatchStats stats_with, stats_without;
    core::MatchPattern(pattern, *graph, with, &stats_with);
    core::MatchPattern(pattern, *graph, without, &stats_without);
    std::printf("    %-18s %12lld %12lld\n", id,
                static_cast<long long>(stats_with.steps),
                static_cast<long long>(stats_without.steps));
  }
}

void ApproximateAblation() {
  std::printf("\n(b) approximate expressions r̂ (Fig. 2a-style bound "
              "error)\n");
  const char* kSubmission = R"(
      void assignment1(int[] a) {
        int o = 0;
        int e = 1;
        for (int i = 0; i <= a.length; i++)
          if (i % 2 == 1)
            o += a[i];
        for (int j = 0; j < a.length; j++)
          if (j % 2 == 0)
            e *= a[j];
        System.out.println(o);
        System.out.println(e);
      })";
  const auto& assignment =
      jfeed::kb::KnowledgeBase::Get().assignment("assignment1");
  auto feedback = core::MatchSubmissionSource(assignment.spec, kSubmission);
  // Strip the approximate templates and re-grade.
  core::AssignmentSpec stripped = assignment.spec;
  std::vector<core::Pattern> owned;
  owned.reserve(16);
  for (auto& method : stripped.methods) {
    for (auto& use : method.patterns) {
      core::Pattern copy = *use.pattern;
      for (auto& node : copy.nodes) node.approx = core::ExprPattern();
      owned.push_back(std::move(copy));
      use.pattern = &owned.back();
    }
  }
  auto stripped_feedback =
      core::MatchSubmissionSource(stripped, kSubmission);
  auto count_kinds = [](const core::SubmissionFeedback& fb, int* incorrect,
                        int* not_expected) {
    *incorrect = *not_expected = 0;
    for (const auto& c : fb.comments) {
      if (c.kind == core::FeedbackKind::kIncorrect) ++*incorrect;
      if (c.kind == core::FeedbackKind::kNotExpected) ++*not_expected;
    }
  };
  int inc_with, ne_with, inc_without, ne_without;
  count_kinds(*feedback, &inc_with, &ne_with);
  count_kinds(*stripped_feedback, &inc_without, &ne_without);
  std::printf(
      "    with r̂:    %d Incorrect (actionable) / %d NotExpected, Λ=%.1f\n"
      "    without r̂: %d Incorrect / %d NotExpected (diagnosis lost), "
      "Λ=%.1f\n",
      inc_with, ne_with, feedback->score, inc_without, ne_without,
      stripped_feedback->score);
}

void ConstraintAblation() {
  std::printf("\n(c) constraints (Fig. 2c: all pieces present, accumulators "
              "swapped)\n");
  const char* kSwapped = R"(
      void assignment1(int[] a) {
        int x = 1;
        int y = 0;
        for (int i = 1; i < a.length; i++)
          if (i % 2 == 1)
            x *= a[i];
        for (int j = 0; j < a.length; j++)
          if (j % 2 == 0)
            y += a[j];
        System.out.println(y);
        System.out.println(x);
      })";
  const auto& assignment =
      jfeed::kb::KnowledgeBase::Get().assignment("assignment1");
  auto with = core::MatchSubmissionSource(assignment.spec, kSwapped);
  core::AssignmentSpec stripped = assignment.spec;
  for (auto& method : stripped.methods) method.constraints.clear();
  auto without = core::MatchSubmissionSource(stripped, kSwapped);
  std::printf(
      "    with constraints:    Λ=%.1f, verdict %s\n"
      "    without constraints: Λ=%.1f, verdict %s\n",
      with->score, with->AllCorrect() ? "all-correct" : "negative",
      without->score, without->AllCorrect() ? "all-correct (wrongly!)"
                                            : "negative");
}

void VariationAblation() {
  std::printf("\n(d) pattern variations (i += 2 strategy)\n");
  const char* kStep = R"(
      void assignment1(int[] a) {
        int o = 0;
        int e = 1;
        for (int i = 1; i < a.length; i += 2)
          o += a[i];
        for (int j = 0; j < a.length; j += 2)
          e *= a[j];
        System.out.println(o);
        System.out.println(e);
      })";
  const auto& assignment =
      jfeed::kb::KnowledgeBase::Get().assignment("assignment1");
  Clock::time_point t0 = Clock::now();
  auto base = core::MatchSubmissionSource(assignment.spec, kStep);
  double base_us = MicrosSince(t0);
  core::AssignmentSpec with = assignment.spec;
  jfeed::kb::ExtensionLibrary::Get().AttachAssignment1Variations(&with);
  Clock::time_point t1 = Clock::now();
  auto extended = core::MatchSubmissionSource(with, kStep);
  double extended_us = MicrosSince(t1);
  std::printf(
      "    base spec:       verdict %s (Λ=%.1f) in %.0f us\n"
      "    with variations: verdict %s (Λ=%.1f) in %.0f us\n",
      base->AllCorrect() ? "all-correct" : "negative", base->score, base_us,
      extended->AllCorrect() ? "all-correct" : "negative", extended->score,
      extended_us);
}

}  // namespace

int main() {
  std::printf("Design-choice ablations\n\n");
  OrderingAblation();
  ApproximateAblation();
  ConstraintAblation();
  VariationAblation();
  return 0;
}
