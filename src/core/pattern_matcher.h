#ifndef JFEED_CORE_PATTERN_MATCHER_H_
#define JFEED_CORE_PATTERN_MATCHER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/pattern.h"
#include "pdg/epdg.h"
#include "pdg/match_index.h"
#include "support/arena.h"

namespace jfeed::core {

/// An embedding m = (ι, γ) of a pattern in an extended program dependence
/// graph (Definition 7), extended with per-node correctness marks: a node
/// matched through its exact expression r is correct, one matched only
/// through the approximate expression r̂ is incorrect (Sec. IV).
struct Embedding {
  std::map<int, graph::NodeId> iota;  ///< Pattern node index -> graph node.
  VarBinding gamma;                   ///< Pattern variable -> submission variable.
  std::set<int> incorrect_nodes;      ///< Pattern nodes matched approximately.

  bool IsFullyCorrect() const { return incorrect_nodes.empty(); }
};

/// Tuning knobs for the backtracking search.
struct MatchOptions {
  /// Upper bound on embeddings gathered before the search stops. Subgraph
  /// matching is NP-hard (Sec. IV); intro-sized graphs never get close to
  /// this, but the bound keeps adversarial inputs from exploding.
  size_t max_embeddings = 256;
  /// Upper bound on backtracking steps (candidate nodes tried).
  int64_t max_steps = 1'000'000;
  /// Pick the next pattern node by connectivity to the partial embedding
  /// and candidate-set size (Sec. IV: "the performance depends on the size
  /// of the search space and the processing order of the pattern nodes").
  /// Disabled, nodes are processed in declaration order — the ablation
  /// bench quantifies the difference. Candidate sets are ranked by their
  /// *type bucket* size (pre-pruning), which keeps the exploration order —
  /// and therefore the canonical output — that of the reference
  /// backtracker the tests compare against.
  bool use_ordering_heuristic = true;
  /// Bump arena for the matcher's per-run state (plans, memo, emitted
  /// embeddings). Null means the matcher creates a private arena per call;
  /// the grading pipeline passes its pooled per-worker arena, reset
  /// between submissions, so steady-state matching performs no
  /// general-purpose allocations. The caller must not Reset() it while a
  /// match runs.
  Arena* scratch_arena = nullptr;
};

/// Statistics of one PatternMatching run (exposed for benchmarks).
struct MatchStats {
  int64_t steps = 0;            ///< Candidate (u, v) pairs tried.
  int64_t regex_checks = 0;     ///< Variable-combination template checks.
  /// Candidates dropped by degree-signature pruning before backtracking
  /// ever considered them.
  int64_t candidates_pruned = 0;
  /// Template checks answered by the binding-independent memo instead of a
  /// regex execution.
  int64_t memo_hits = 0;
  bool truncated = false;       ///< Search stopped at a limit.

  /// Adds `other`'s counters into this one (used to aggregate the total
  /// matching cost of a submission across patterns and variants).
  void Accumulate(const MatchStats& other) {
    steps += other.steps;
    regex_checks += other.regex_checks;
    candidates_pruned += other.candidates_pruned;
    memo_hits += other.memo_hits;
    truncated = truncated || other.truncated;
  }
};

/// Algorithm 1 (PatternMatching): computes the embeddings of `pattern` in
/// `epdg`. Deviations from the paper's pseudo-code are documented in
/// DESIGN.md §3: injective (not bijective) variable combinations, and edge
/// verification in both orientations.
///
/// The result is canonicalized: embeddings with the same ι are collapsed to
/// the one with the fewest incorrect nodes (ties broken by γ order), so the
/// embedding count means "distinct placements of the pattern", which is what
/// Algorithm 2 compares against the expected-occurrence map t̄.
///
/// This overload builds a throw-away pdg::MatchIndex for `epdg`; callers
/// matching many patterns against the same graph should build the index
/// once and use the overload below.
std::vector<Embedding> MatchPattern(const Pattern& pattern,
                                    const pdg::Epdg& epdg,
                                    const MatchOptions& options = {},
                                    MatchStats* stats = nullptr);

/// Same, with a caller-owned match index (built once per EPDG and shared
/// across all patterns, variants, and method candidates — DESIGN.md §3a).
/// `index` must have been built from `epdg`.
std::vector<Embedding> MatchPattern(const Pattern& pattern,
                                    const pdg::Epdg& epdg,
                                    const pdg::MatchIndex& index,
                                    const MatchOptions& options = {},
                                    MatchStats* stats = nullptr);

}  // namespace jfeed::core

#endif  // JFEED_CORE_PATTERN_MATCHER_H_
