// An instructor-facing report over a whole class: generates a cohort of
// synthetic submissions for an assignment (the paper's evaluation
// methodology), grades all of them, and aggregates which feedback comments
// fire most often — the "what is my class struggling with?" view that
// per-student personalized feedback enables at MOOC scale.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "core/submission_matcher.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "synth/generator.h"

int main(int argc, char** argv) {
  const char* id = argc > 1 ? argv[1] : "assignment1";
  uint64_t cohort = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 400;

  const auto& assignment = jfeed::kb::KnowledgeBase::Get().assignment(id);
  std::printf("Class report — %s (%s)\n", assignment.id.c_str(),
              assignment.spec.title.c_str());
  std::printf("Cohort: %llu synthetic submissions\n\n",
              static_cast<unsigned long long>(cohort));

  std::map<std::string, int> issue_counts;
  std::map<std::string, std::string> issue_examples;
  int graded = 0;
  int all_correct = 0;
  double total_ms = 0;

  for (uint64_t index : jfeed::synth::SampleIndexes(
           assignment.generator.SpaceSize(), cohort)) {
    std::string source = assignment.generator.Generate(index);
    auto unit = jfeed::java::Parse(source);
    if (!unit.ok()) continue;
    auto start = std::chrono::steady_clock::now();
    auto feedback = jfeed::core::MatchSubmission(assignment.spec, *unit);
    total_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!feedback.ok() || !feedback->matched) continue;
    ++graded;
    if (feedback->AllCorrect()) {
      ++all_correct;
      continue;
    }
    for (const auto& comment : feedback->comments) {
      if (comment.kind == jfeed::core::FeedbackKind::kCorrect) continue;
      std::string key = comment.source_id;
      ++issue_counts[key];
      if (issue_examples.count(key) == 0) {
        issue_examples[key] =
            std::string("[") + jfeed::core::FeedbackKindName(comment.kind) +
            "] " + comment.message;
      }
    }
  }

  std::printf("Graded %d submissions in %.0f ms total (%.2f ms each); "
              "%d (%.1f%%) fully correct.\n\n",
              graded, total_ms, total_ms / std::max(graded, 1), all_correct,
              100.0 * all_correct / std::max(graded, 1));

  std::vector<std::pair<int, std::string>> ranked;
  for (const auto& [key, count] : issue_counts) {
    ranked.emplace_back(count, key);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("Most common problems (pattern/constraint, share of cohort):\n");
  for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
    std::printf("  %5.1f%%  %-32s %s\n",
                100.0 * ranked[i].first / std::max(graded, 1),
                ranked[i].second.c_str(),
                issue_examples[ranked[i].second].c_str());
  }
  return 0;
}
