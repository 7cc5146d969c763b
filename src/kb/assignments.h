#ifndef JFEED_KB_ASSIGNMENTS_H_
#define JFEED_KB_ASSIGNMENTS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/submission_matcher.h"
#include "kb/patterns.h"
#include "support/result.h"
#include "synth/generator.h"
#include "testing/functional.h"

namespace jfeed::kb {

/// Everything the evaluation needs for one assignment: the instructor
/// specification (patterns + constraints, Table I columns P and C, parsed
/// from data/assignments.kb), the error-model generator whose search-space
/// size is Table I column S, and the functional test suite (column T /
/// discrepancies D). All but the spec are code.
struct Assignment {
  std::string id;
  std::string description;
  core::AssignmentSpec spec;
  synth::SubmissionTemplate generator;
  testing::FunctionalSuite suite;
  /// Column D of Table I (for the bench report).
  int paper_discrepancies = 0;

  /// The reference solution (= generator.Generate(0)).
  std::string Reference() const { return generator.Generate(0); }
};

/// The full knowledge base: the 24-pattern library plus the 12 real-world
/// assignments of Table I.
class KnowledgeBase {
 public:
  /// The process-wide knowledge base: data/assignments.kb, embedded at
  /// build time and parsed on first use, paired with the code-side
  /// assignments. A malformed file aborts the process with a one-line
  /// message naming the file, the line and the rule broken.
  static const KnowledgeBase& Get();

  /// Parses `text` as data/assignments.kb against `library` and pairs each
  /// spec by id with the code-side assignment of that id. Fails on
  /// malformed text, on a spec with no code-side assignment and on a
  /// code-side assignment with no spec.
  static Result<KnowledgeBase> Load(std::string_view text,
                                    const PatternLibrary& library);

  const Assignment& assignment(const std::string& id) const;
  const std::vector<std::string>& assignment_ids() const { return ids_; }
  size_t size() const { return assignments_.size(); }

 private:
  KnowledgeBase() = default;

  std::map<std::string, Assignment> assignments_;
  std::vector<std::string> ids_;
};

}  // namespace jfeed::kb

#endif  // JFEED_KB_ASSIGNMENTS_H_
