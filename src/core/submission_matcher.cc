#include "core/submission_matcher.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "javalang/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdg/epdg.h"
#include "support/fault.h"

namespace jfeed::core {

size_t AssignmentSpec::PatternCount() const {
  std::set<std::string> ids;
  for (const auto& method : methods) {
    for (const auto& use : method.patterns) {
      if (use.pattern != nullptr) ids.insert(use.pattern->id);
    }
  }
  return ids.size();
}

size_t AssignmentSpec::ConstraintCount() const {
  size_t n = 0;
  for (const auto& method : methods) n += method.constraints.size();
  return n;
}

bool SubmissionFeedback::AllCorrect() const {
  if (!matched) return false;
  for (const auto& c : comments) {
    if (c.kind != FeedbackKind::kCorrect) return false;
  }
  return !comments.empty();
}

namespace {

/// ProvideFeedback (Sec. V): turns the embeddings of one pattern into a
/// feedback comment according to the expected occurrence count.
FeedbackComment ProvideFeedback(const std::vector<Embedding>& embeddings,
                                const Pattern& pattern, int expected_count,
                                const std::string& method_name,
                                const std::vector<int>& also_accept = {}) {
  FeedbackComment comment;
  comment.source_id = pattern.id;
  comment.method = method_name;
  int count = static_cast<int>(embeddings.size());
  bool accepted = count == expected_count;
  for (int alt : also_accept) accepted |= count == alt;
  if (!accepted) {
    // Missing pattern — or, for bad patterns (t̄ = 0), wrongly present.
    comment.kind = FeedbackKind::kNotExpected;
    comment.message = InstantiateFeedback(pattern.feedback_missing, {});
    return comment;
  }
  if (expected_count == 0) {
    // A bad pattern that is correctly absent. The pattern's presence
    // feedback describes the pattern being there, so a generic absence
    // message reads better.
    comment.kind = FeedbackKind::kCorrect;
    comment.message =
        "Good: '" + pattern.name + "' does not occur in your submission";
    return comment;
  }
  bool all_correct = true;
  for (const auto& m : embeddings) {
    if (!m.IsFullyCorrect()) all_correct = false;
  }
  comment.kind =
      all_correct ? FeedbackKind::kCorrect : FeedbackKind::kIncorrect;
  comment.message =
      InstantiateFeedback(pattern.feedback_present, embeddings[0].gamma);
  size_t templated_nodes = 0;
  for (const auto& node : pattern.nodes) {
    if (!node.feedback_correct.empty() || !node.feedback_incorrect.empty()) {
      ++templated_nodes;
    }
  }
  comment.details.reserve(embeddings.size() * templated_nodes);
  for (const auto& m : embeddings) {
    for (size_t u = 0; u < pattern.nodes.size(); ++u) {
      const PatternNode& node = pattern.nodes[u];
      bool incorrect = m.incorrect_nodes.count(static_cast<int>(u)) > 0;
      const std::string& tmpl =
          incorrect ? node.feedback_incorrect : node.feedback_correct;
      if (tmpl.empty()) continue;
      comment.details.push_back(InstantiateFeedback(tmpl, m.gamma));
    }
  }
  return comment;
}

/// Feedback for one constraint: evaluates it once (witness feedback is
/// rendered during that same evaluation) and folds the outcome into a
/// comment.
FeedbackComment ConstraintFeedback(const Constraint& constraint,
                                   const pdg::Epdg& epdg,
                                   const EmbeddingSets& embeddings,
                                   const std::set<std::string>& not_expected,
                                   const std::string& method_name) {
  FeedbackComment comment;
  comment.source_id = constraint.id;
  comment.method = method_name;
  ConstraintOutcome outcome = CheckConstraintFeedback(
      constraint, epdg, embeddings, not_expected, &comment.message);
  switch (outcome) {
    case ConstraintOutcome::kFulfilled:
      comment.kind = FeedbackKind::kCorrect;
      break;
    case ConstraintOutcome::kViolated:
      comment.kind = FeedbackKind::kIncorrect;
      comment.message = InstantiateFeedback(constraint.feedback_fail, {});
      break;
    case ConstraintOutcome::kNotApplicable:
      comment.kind = FeedbackKind::kNotExpected;
      comment.message = InstantiateFeedback(constraint.feedback_fail, {});
      break;
  }
  return comment;
}

/// Enumerates injective assignments of expected methods (indexes into
/// `spec.methods`) to submission methods (indexes into `graphs`).
void EnumerateAssignments(size_t expected_count, size_t available_count,
                          size_t max_combinations,
                          std::vector<std::vector<size_t>>* out) {
  std::vector<size_t> current;
  std::vector<bool> used(available_count, false);
  std::function<void()> recurse = [&]() {
    if (out->size() >= max_combinations) return;
    if (current.size() == expected_count) {
      out->push_back(current);
      return;
    }
    for (size_t h = 0; h < available_count; ++h) {
      if (used[h]) continue;
      used[h] = true;
      current.push_back(h);
      recurse();
      current.pop_back();
      used[h] = false;
    }
  };
  recurse();
}

/// The shared body of MatchSubmission / MatchSubmissionGraphs, operating on
/// per-method graph refs so the cold path (all stores null) and the
/// incremental path run the exact same evaluation order.
Result<SubmissionFeedback> MatchGraphsImpl(
    const AssignmentSpec& spec, std::span<const MethodGraphRef> graphs,
    const SubmissionMatchOptions& options) {
  // One match index per EPDG, built on first use and shared across every
  // pattern, variant, and method-candidate evaluation below — the
  // per-pattern type scan and signature data are graph properties, not
  // pattern properties. Lazy so a submission whose cells are all reused
  // from cache never pays for an index it won't consult.
  std::vector<std::unique_ptr<pdg::MatchIndex>> indexes(graphs.size());
  auto index_for = [&](size_t graph_index) -> const pdg::MatchIndex& {
    if (!indexes[graph_index]) {
      obs::Span index_span("match.index");
      indexes[graph_index] = std::make_unique<pdg::MatchIndex>(
          *graphs[graph_index].graph, options.match.scratch_arena);
    }
    return *indexes[graph_index];
  };
  // Each MatchPattern run gets a fresh stats block so max_steps stays a
  // per-pattern bound, then folds into the demanding cell's stats — the
  // unit that can be reused across resubmissions.
  auto match_one = [&](const Pattern& pattern, size_t graph_index,
                       MatchStats* sink) {
    MatchStats call_stats;
    std::vector<Embedding> m =
        MatchPattern(pattern, *graphs[graph_index].graph,
                     index_for(graph_index), options.match, &call_stats);
    sink->Accumulate(call_stats);
    return m;
  };

  SubmissionFeedback best;
  if (graphs.size() < spec.methods.size()) {
    // Fewer methods than expected: no combination adheres to the spec.
    return best;
  }

  // Prefer exact header-name matches first: when the assignment enforces
  // method headers (the common case), the first combination evaluated is
  // the intended one and ties resolve toward it.
  std::vector<std::vector<size_t>> assignments;
  {
    std::vector<size_t> by_name;
    std::set<size_t> taken;
    bool all_found = true;
    for (const auto& method : spec.methods) {
      bool found = false;
      for (size_t h = 0; h < graphs.size(); ++h) {
        if (taken.count(h) == 0 &&
            graphs[h].graph->method_name() == method.expected_name) {
          by_name.push_back(h);
          taken.insert(h);
          found = true;
          break;
        }
      }
      if (!found) {
        all_found = false;
        break;
      }
    }
    if (all_found) assignments.push_back(std::move(by_name));
  }
  std::vector<std::vector<size_t>> all;
  EnumerateAssignments(spec.methods.size(), graphs.size(),
                       options.max_combinations, &all);
  for (auto& a : all) {
    if (assignments.empty() || a != assignments.front()) {
      assignments.push_back(std::move(a));
    }
  }

  // Step 2: evaluate every combination and keep the best Λ score.
  //
  // The per-(expected-method, submission-method) evaluation — pattern
  // matches, variant fallbacks, constraints, and their feedback comments —
  // depends only on that pair, never on the rest of the combination. So
  // each pair ("cell") is evaluated at most once, lazily, and every
  // combination is scored from its cells' partial scores. FeedbackScore
  // sums exact multiples of 0.5, so per-cell partial sums reproduce the
  // concatenated-list score bit for bit; only the winning combination's
  // comment list is materialized, by moving its cells' comments. A graph
  // ref that carries a MethodCellStore short-circuits the computation with
  // the stored value and contributes newly computed cells back.
  struct Cell {
    bool evaluated = false;
    MethodCellValue value;
  };
  std::vector<Cell> cells(spec.methods.size() * graphs.size());
  auto cell_at = [&](size_t qi, size_t graph_index) -> Cell& {
    Cell& cell = cells[qi * graphs.size() + graph_index];
    if (cell.evaluated) return cell;
    cell.evaluated = true;
    MethodCellStore* store = graphs[graph_index].cells;
    if (store != nullptr && store->Find(qi, &cell.value)) return cell;
    const MethodSpec& q = spec.methods[qi];
    const pdg::Epdg& epdg = *graphs[graph_index].graph;
    std::vector<FeedbackComment>& comments = cell.value.comments;
    comments.reserve(q.patterns.size() + q.constraints.size());

    // Step 2.1: match patterns, accumulating embeddings (the paper's m̄).
    EmbeddingSets embedding_sets;
    std::set<std::string> not_expected;
    for (const auto& use : q.patterns) {
      if (use.pattern == nullptr) continue;
      std::vector<Embedding> m =
          match_one(*use.pattern, graph_index, &cell.value.stats);
      FeedbackComment comment =
          ProvideFeedback(m, *use.pattern, use.expected_count,
                          epdg.method_name(), use.also_accept_counts);
      // Pattern variations (Sec. VII): when the primary realization is
      // missing, accept an alternative realization of the same
      // semantics.
      if (comment.kind == FeedbackKind::kNotExpected &&
          use.expected_count > 0) {
        for (const PatternVariant& variant : use.variants) {
          if (variant.pattern == nullptr) continue;
          std::vector<Embedding> vm =
              match_one(*variant.pattern, graph_index, &cell.value.stats);
          if (static_cast<int>(vm.size()) != use.expected_count) continue;
          comment = ProvideFeedback(vm, *variant.pattern,
                                    use.expected_count,
                                    epdg.method_name());
          comment.source_id = use.pattern->id;
          comment.message += " (accepted variation: " +
                             variant.pattern->name + ")";
          // Re-index the embeddings onto the primary pattern's slots so
          // constraints written against the primary keep working.
          m.clear();
          for (const Embedding& original : vm) {
            Embedding remapped;
            for (const auto& [variant_var, value] : original.gamma) {
              auto renamed = variant.var_map.find(variant_var);
              remapped.gamma[renamed != variant.var_map.end()
                                 ? renamed->second
                                 : variant_var] = value;
            }
            for (const auto& [slot, variant_node] : variant.slot_map) {
              auto it = original.iota.find(variant_node);
              if (it != original.iota.end()) {
                remapped.iota[slot] = it->second;
              }
              if (original.incorrect_nodes.count(variant_node) > 0) {
                remapped.incorrect_nodes.insert(slot);
              }
            }
            m.push_back(std::move(remapped));
          }
          break;
        }
      }
      if (comment.kind == FeedbackKind::kNotExpected) {
        not_expected.insert(use.pattern->id);
      }
      comments.push_back(std::move(comment));
      embedding_sets[use.pattern->id] = std::move(m);
    }
    // Step 2.2: match constraints.
    for (const auto& constraint : q.constraints) {
      comments.push_back(ConstraintFeedback(constraint, epdg, embedding_sets,
                                            not_expected,
                                            epdg.method_name()));
    }
    cell.value.score = FeedbackScore(comments);
    // Publish the freshly computed cell (a copy: the winner materialization
    // below moves our local comments) before anyone can observe it.
    if (store != nullptr) store->Insert(qi, cell.value);
    return cell;
  };

  // Step 2.3: score every combination, keep the first one with the best
  // score (ties resolve toward the earlier combination, exactly as when
  // each combination carried its own comment list).
  const std::vector<size_t>* best_assignment = nullptr;
  for (const auto& assignment : assignments) {
    double score = 0.0;
    for (size_t qi = 0; qi < spec.methods.size(); ++qi) {
      score += cell_at(qi, assignment[qi]).value.score;
    }
    if (!best.matched || score > best.score) {
      best.matched = true;
      best.score = score;
      best_assignment = &assignment;
    }
  }

  // Materialize the winner: concatenate its cells' comments (each cell
  // appears in the winning combination at most once, so moving is safe)
  // and record its method mapping.
  if (best_assignment != nullptr) {
    size_t total = 0;
    for (size_t qi = 0; qi < spec.methods.size(); ++qi) {
      total += cell_at(qi, (*best_assignment)[qi]).value.comments.size();
    }
    best.comments.reserve(total);
    for (size_t qi = 0; qi < spec.methods.size(); ++qi) {
      const size_t graph_index = (*best_assignment)[qi];
      Cell& cell = cell_at(qi, graph_index);
      for (auto& comment : cell.value.comments) {
        best.comments.push_back(std::move(comment));
      }
      best.method_assignment[spec.methods[qi].expected_name] =
          std::string(graphs[graph_index].graph->method_name());
    }
  }
  // Total Algorithm-1 cost of this call: the demanded-cell set is
  // deterministic over (spec, graph contents), and a reused cell carries
  // the stats of the run that computed it, so cold and warm runs aggregate
  // identical totals — the equivalence the golden suite pins down.
  MatchStats total_stats;
  for (const Cell& cell : cells) {
    if (cell.evaluated) total_stats.Accumulate(cell.value.stats);
  }
  best.match_stats = total_stats;

  // Aggregate Algorithm-1 cost of this submission, as distributions: step
  // and regex-check counts are the deterministic cost model the bench
  // regression gate tracks; prune/memo counters quantify how much work the
  // index saved; truncation marks adversarial graphs that hit a limit.
  auto& registry = obs::Registry::Global();
  static obs::Histogram* steps_hist = registry.GetHistogram(
      "jfeed_match_steps", "Algorithm-1 backtracking steps per submission");
  static obs::Histogram* regex_hist = registry.GetHistogram(
      "jfeed_match_regex_checks",
      "Variable-combination template checks per submission");
  static obs::Counter* pruned_total = registry.GetCounter(
      "jfeed_match_candidates_pruned_total",
      "Candidates dropped by degree-signature pruning");
  static obs::Counter* memo_total = registry.GetCounter(
      "jfeed_match_memo_hits_total",
      "Template checks answered by the binding-independent memo");
  static obs::Counter* truncated_total = registry.GetCounter(
      "jfeed_match_truncated_total",
      "Submissions whose pattern search stopped at a step/embedding limit");
  steps_hist->Record(total_stats.steps);
  regex_hist->Record(total_stats.regex_checks);
  pruned_total->Increment(total_stats.candidates_pruned);
  memo_total->Increment(total_stats.memo_hits);
  if (total_stats.truncated) truncated_total->Increment();
  return best;
}

}  // namespace

bool MethodCellStore::Find(size_t qi, MethodCellValue* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(qi);
  if (it == cells_.end()) return false;
  *out = it->second;
  return true;
}

void MethodCellStore::Insert(size_t qi, MethodCellValue value) {
  std::lock_guard<std::mutex> lock(mu_);
  // First writer wins: concurrent computations of the same cell produce
  // equivalent values, and keeping the published one means every later
  // reader sees bit-identical comments.
  cells_.emplace(qi, std::move(value));
}

size_t MethodCellStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

Result<SubmissionFeedback> MatchSubmission(
    const AssignmentSpec& spec, const java::CompilationUnit& submission,
    const SubmissionMatchOptions& options) {
  JFEED_FAULT_POINT(fault::points::kMatcher);
  // Step 1: extract the EPDG of every submission method, on the pooled
  // memory when the caller supplies one.
  JFEED_ASSIGN_OR_RETURN(std::vector<pdg::Epdg> graphs,
                         pdg::BuildAllEpdgs(submission, options.epdg_memory));
  std::vector<MethodGraphRef> refs;
  refs.reserve(graphs.size());
  for (const auto& g : graphs) refs.push_back({&g, nullptr});
  return MatchGraphsImpl(spec, refs, options);
}

Result<SubmissionFeedback> MatchSubmissionGraphs(
    const AssignmentSpec& spec, std::span<const MethodGraphRef> graphs,
    const SubmissionMatchOptions& options) {
  JFEED_FAULT_POINT(fault::points::kMatcher);
  return MatchGraphsImpl(spec, graphs, options);
}

Result<SubmissionFeedback> MatchSubmissionSource(
    const AssignmentSpec& spec, const std::string& source,
    const SubmissionMatchOptions& options) {
  JFEED_ASSIGN_OR_RETURN(java::CompilationUnit unit, java::Parse(source));
  return MatchSubmission(spec, unit, options);
}

}  // namespace jfeed::core
