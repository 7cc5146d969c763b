// Algorithm 1 (PatternMatching): the index-driven, flat-state backtracker.
//
// Four levers over a plain per-pattern backtracker (DESIGN.md §3a, §3c):
//   1. Candidates come from the shared pdg::MatchIndex: type buckets
//      replace the per-pattern O(|P|·|G|) type scan, and degree-signature
//      pruning drops candidates that cannot host a pattern node's incident
//      edges *before* backtracking ever tries them.
//   2. The search state is allocation-free per step: ι is a flat vector,
//      γ is a binding stack with O(1) undo, per-node variable sets are
//      precomputed once, and regex text is assembled into a reused scratch
//      buffer.
//   3. Binding-independent template checks (templates that use no pattern
//      variables) are memoized per (pattern node, graph node), so repeated
//      visits under different partial embeddings cost one lookup.
//   4. Every per-run structure — plans, candidate lists, the memo, the
//      emitted embeddings — lives in a bump arena (options.scratch_arena,
//      pooled per worker and reset between submissions), and embeddings are
//      deduplicated *at emit time* against flat ι slices, so the map/set
//      Embedding representation is materialized only for the few survivors.
//
// Exploration order is that of the pre-index backtracker kept under tests/
// as the equivalence reference (the ordering heuristic ranks by *unpruned*
// type-bucket size; candidates iterate in ascending node id; injections
// enumerate in the same lexicographic order), and the emit-time dedup
// applies its collapse rule (first ι occurrence keeps its position; a later
// duplicate replaces it only with strictly fewer incorrect nodes), so the
// two emit the same canonical embedding sequence.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern_matcher.h"
#include "support/arena.h"

namespace jfeed::core {

namespace {

/// The substituted-regex assembly buffer, shared by every matcher run on
/// this thread (the matcher itself is rebuilt per pattern; the scratch
/// capacity is the part worth keeping).
std::string& RegexScratch() {
  static thread_local std::string scratch;
  return scratch;
}

/// γ as a push/pop stack of (pattern variable, submission variable)
/// pointers. Lookups are linear scans — intro-sized patterns bind a
/// handful of variables, so this beats a node-allocating map. Doubles as
/// the incremental bound-submission-variable set: BoundValue scans the
/// value column instead of rebuilding a set per candidate.
class GammaStack final : public BindingLookup {
 public:
  struct Entry {
    const std::string* var;
    const std::string* value;
  };

  explicit GammaStack(Arena* arena) : entries_(arena) {}

  const std::string* Find(const std::string& pattern_var) const override {
    for (const auto& e : entries_) {
      if (*e.var == pattern_var) return e.value;
    }
    return nullptr;
  }

  bool BoundValue(const std::string& submission_var) const {
    for (const auto& e : entries_) {
      if (*e.value == submission_var) return true;
    }
    return false;
  }

  void Push(const std::string* var, const std::string* value) {
    entries_.push_back({var, value});
  }
  size_t Mark() const { return entries_.size(); }
  void PopTo(size_t mark) { entries_.resize(mark); }

  size_t size() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }

 private:
  ArenaVec<Entry> entries_;
};

pdg::NodeType ToGraphType(PatternNodeType type) {
  switch (type) {
    case PatternNodeType::kAssign: return pdg::NodeType::kAssign;
    case PatternNodeType::kBreak: return pdg::NodeType::kBreak;
    case PatternNodeType::kCall: return pdg::NodeType::kCall;
    case PatternNodeType::kCond: return pdg::NodeType::kCond;
    case PatternNodeType::kDecl: return pdg::NodeType::kDecl;
    case PatternNodeType::kReturn: return pdg::NodeType::kReturn;
    case PatternNodeType::kUntyped: break;
  }
  return pdg::NodeType::kAssign;  // Unreachable; callers gate on kUntyped.
}

class IndexedMatcher {
 public:
  IndexedMatcher(const Pattern& pattern, const pdg::Epdg& epdg,
                 const pdg::MatchIndex& index, const MatchOptions& options,
                 MatchStats* stats, Arena* arena)
      : pattern_(pattern),
        epdg_(epdg),
        index_(index),
        options_(options),
        stats_(stats),
        arena_(arena),
        gamma_(arena),
        plans_(arena),
        iota_(arena),
        matched_graph_(arena),
        incorrect_(arena),
        memo_(arena),
        iota_store_(arena),
        incorrect_store_(arena),
        gamma_store_(arena),
        survivors_(arena) {}

  std::vector<Embedding> Run() {
    const size_t n_pattern = pattern_.nodes.size();
    n_graph_ = epdg_.NodeCount();
    plans_.resize(n_pattern);
    if (!BuildPlans()) return {};
    iota_.resize(n_pattern, graph::kInvalidNode);
    matched_graph_.resize(n_graph_, 0);
    incorrect_.resize(n_pattern, 0);
    depth_ = 0;
    Search();
    if (stats_ != nullptr) stats_->truncated = truncated_;
    return MaterializeSurvivors();
  }

 private:
  struct EdgeCheck {
    int other;           ///< The pattern node on the far end.
    pdg::EdgeType type;
    bool out;            ///< True when this node is the edge's source.
  };

  /// Everything precomputed for one pattern node, plus its per-candidate
  /// scratch. Scratch-in-plan is safe because a pattern node sits on the
  /// DFS path at most once (ι is a function of pattern nodes). All members
  /// are arena vectors, so a NodePlan is trivially copyable and the plan
  /// array itself can live in the arena.
  struct NodePlan {
    ArenaVec<graph::NodeId> candidates;  ///< Signature-pruned, ascending.
    size_t type_space = 0;  ///< Unpruned bucket size (ordering parity).
    ArenaVec<EdgeCheck> edges;
    /// Sorted, deduplicated variables of exact ∪ approx (pointers into the
    /// pattern's own variable sets).
    ArenaVec<const std::string*> vars;
    bool exact_const = false;   ///< exact is non-empty and variable-free.
    bool approx_const = false;  ///< approx is non-empty and variable-free.
    // Per-candidate scratch, reused without reallocation:
    ArenaVec<const std::string*> fresh_pattern;
    ArenaVec<const std::string*> fresh_graph;
    ArenaVec<char> used;  ///< Injection targets taken at this node.
  };

  /// One emitted embedding that survived dedup: flat slices into the
  /// parallel stores below. γ entries point at the pattern's variable names
  /// and the graph's interned names, both of which outlive the run.
  struct Survivor {
    uint32_t iota_begin;
    uint32_t incorrect_begin;
    uint32_t gamma_begin;
    uint32_t gamma_count;
    uint32_t incorrect_count;
  };

  bool BuildPlans() {
    for (size_t u = 0; u < pattern_.nodes.size(); ++u) {
      NodePlan& plan = plans_[u];
      plan.candidates.Attach(arena_);
      plan.edges.Attach(arena_);
      plan.vars.Attach(arena_);
      plan.fresh_pattern.Attach(arena_);
      plan.fresh_graph.Attach(arena_);
      plan.used.Attach(arena_);
      const PatternNode& pnode = pattern_.nodes[u];
      // Candidate set: the node-type bucket, then signature pruning.
      const std::span<const graph::NodeId> bucket =
          pnode.type == PatternNodeType::kUntyped
              ? index_.AllNodes()
              : index_.Bucket(ToGraphType(pnode.type));
      plan.type_space = bucket.size();
      pdg::DegreeSignature need = RequiredSignature(static_cast<int>(u));
      for (graph::NodeId v : bucket) {
        if (index_.Signature(v).Covers(need)) {
          plan.candidates.push_back(v);
        } else if (stats_ != nullptr) {
          ++stats_->candidates_pruned;
        }
      }
      if (plan.candidates.empty()) return false;  // No embedding possible.
      // Incident edges (declaration order, like the reference matcher).
      for (const auto& edge : pattern_.edges) {
        if (edge.source == static_cast<int>(u)) {
          plan.edges.push_back({edge.target, edge.type, true});
        }
        if (edge.target == static_cast<int>(u)) {
          plan.edges.push_back({edge.source, edge.type, false});
        }
      }
      // Variable sets, merged once instead of per candidate pair. The two
      // source sets are each name-sorted and the overlap check keeps them
      // disjoint, so one sort yields the dedup'd union.
      for (const auto& var : pnode.exact.variables()) {
        plan.vars.push_back(&var);
      }
      for (const auto& var : pnode.approx.variables()) {
        if (pnode.exact.variables().count(var) == 0) {
          plan.vars.push_back(&var);
        }
      }
      std::sort(plan.vars.begin(), plan.vars.end(),
                [](const std::string* a, const std::string* b) {
                  return *a < *b;
                });
      plan.exact_const =
          !pnode.exact.empty() && pnode.exact.variables().empty();
      plan.approx_const =
          !pnode.approx.empty() && pnode.approx.variables().empty();
      if ((plan.exact_const || plan.approx_const) && memo_.empty()) {
        memo_.resize(pattern_.nodes.size() * n_graph_, 0);
      }
    }
    return true;
  }

  /// The degree signature pattern node `u` demands of any candidate.
  /// Distinct incident pattern edges with distinct far endpoints map to
  /// distinct graph edges under an injective ι, so the candidate needs at
  /// least that many edges per (direction, type) — and per neighbor type
  /// for typed far endpoints. Duplicate pattern edges (same endpoints and
  /// type) collapse onto one graph edge and are deduplicated here;
  /// self-loops never constrain the partial-embedding checks (the far
  /// endpoint is unmatched when the node is placed) and are skipped for
  /// parity with the reference matcher.
  pdg::DegreeSignature RequiredSignature(int u) const {
    pdg::DegreeSignature need;
    // (etype, other) pairs already counted, per direction. Pattern edge
    // lists are tiny, so linear membership scans beat a set.
    struct Seen {
      int etype, other;
    };
    ArenaVec<Seen> seen_out(arena_), seen_in(arena_);
    auto insert_new = [](ArenaVec<Seen>& seen, Seen key) {
      for (const auto& k : seen) {
        if (k.etype == key.etype && k.other == key.other) return false;
      }
      seen.push_back(key);
      return true;
    };
    for (const auto& edge : pattern_.edges) {
      if (edge.source == edge.target) continue;
      int etype = static_cast<int>(edge.type);
      if (edge.source == u && insert_new(seen_out, {etype, edge.target})) {
        PatternNodeType t = pattern_.nodes[edge.target].type;
        need.AddEdge(/*dir=*/0, etype,
                     t == PatternNodeType::kUntyped
                         ? -1
                         : static_cast<int>(ToGraphType(t)));
      }
      if (edge.target == u && insert_new(seen_in, {etype, edge.source})) {
        PatternNodeType t = pattern_.nodes[edge.source].type;
        need.AddEdge(/*dir=*/1, etype,
                     t == PatternNodeType::kUntyped
                         ? -1
                         : static_cast<int>(ToGraphType(t)));
      }
    }
    return need;
  }

  /// The reference matcher's PickNext, ranking by the unpruned type-bucket
  /// size so both explore pattern nodes in the same order.
  int PickNext() const {
    const size_t n = pattern_.nodes.size();
    if (!options_.use_ordering_heuristic) {
      for (size_t u = 0; u < n; ++u) {
        if (iota_[u] == graph::kInvalidNode) return static_cast<int>(u);
      }
      return -1;
    }
    int best = -1;
    int best_connected = -1;
    size_t best_space = 0;
    for (size_t u = 0; u < n; ++u) {
      if (iota_[u] != graph::kInvalidNode) continue;
      int connected = 0;
      for (const auto& ec : plans_[u].edges) {
        if (iota_[ec.other] != graph::kInvalidNode) ++connected;
      }
      size_t space = plans_[u].type_space;
      if (best == -1 || connected > best_connected ||
          (connected == best_connected && space < best_space)) {
        best = static_cast<int>(u);
        best_connected = connected;
        best_space = space;
      }
    }
    return best;
  }

  bool EdgesConsistent(const NodePlan& plan, graph::NodeId v) const {
    for (const auto& ec : plan.edges) {
      graph::NodeId other = iota_[ec.other];
      if (other == graph::kInvalidNode) continue;
      bool present = ec.out ? epdg_.HasEdge(v, other, ec.type)
                            : epdg_.HasEdge(other, v, ec.type);
      if (!present) return false;
    }
    return true;
  }

  /// Splits the node's variables and the graph node's variables into the
  /// fresh (unbound) subsets — X and Y of Algorithm 1 line 18 — using the
  /// precomputed per-node sets and the incremental γ stack.
  void ComputeFresh(NodePlan& plan, const pdg::Node& gnode) {
    plan.fresh_pattern.clear();
    for (const std::string* var : plan.vars) {
      if (gamma_.Find(*var) == nullptr) plan.fresh_pattern.push_back(var);
    }
    plan.fresh_graph.clear();
    gnode.ForEachVar([&](const std::string& var) {
      if (!gamma_.BoundValue(var)) plan.fresh_graph.push_back(&var);
    });
  }

  /// Exact-template check with the binding-independent memo. Safe w.r.t.
  /// γ: the memo is consulted only when the template names no pattern
  /// variables, in which case Matches() never reads γ.
  bool CheckExact(const NodePlan& plan, size_t u, graph::NodeId v,
                  const PatternNode& pnode, const pdg::Node& gnode) {
    if (plan.exact_const) {
      uint8_t& slot = memo_[u * n_graph_ + v];
      if ((slot & 0x3) != 0) {
        if (stats_ != nullptr) ++stats_->memo_hits;
        return (slot & 0x3) == 1;
      }
      if (stats_ != nullptr) ++stats_->regex_checks;
      bool ok = pnode.exact.Matches(gnode.content, gamma_, &RegexScratch());
      slot = static_cast<uint8_t>((slot & ~0x3) | (ok ? 1 : 2));
      return ok;
    }
    if (stats_ != nullptr) ++stats_->regex_checks;
    return pnode.exact.Matches(gnode.content, gamma_, &RegexScratch());
  }

  bool CheckApprox(const NodePlan& plan, size_t u, graph::NodeId v,
                   const PatternNode& pnode, const pdg::Node& gnode) {
    if (plan.approx_const) {
      uint8_t& slot = memo_[u * n_graph_ + v];
      if ((slot & 0xC) != 0) {
        if (stats_ != nullptr) ++stats_->memo_hits;
        return (slot & 0xC) == 0x4;
      }
      if (stats_ != nullptr) ++stats_->regex_checks;
      bool ok = pnode.approx.Matches(gnode.content, gamma_, &RegexScratch());
      slot = static_cast<uint8_t>((slot & ~0xC) | (ok ? 0x4 : 0x8));
      return ok;
    }
    if (stats_ != nullptr) ++stats_->regex_checks;
    return pnode.approx.Matches(gnode.content, gamma_, &RegexScratch());
  }

  /// Emit with the CanonicalizeEmbeddings collapse applied on the fly:
  /// the flat ι is compared against each survivor's slice (survivor counts
  /// are tiny — the max_embeddings bound is the ceiling, single digits the
  /// norm), the first occurrence keeps its position, and a duplicate ι
  /// replaces it only when it has strictly fewer incorrect nodes. Skipped
  /// duplicates — the common case in the raw stream — cost zero stores.
  void EmitEmbedding() {
    ++raw_emitted_;
    const size_t n = pattern_.nodes.size();
    uint32_t incorrect_count = 0;
    for (size_t u = 0; u < n; ++u) incorrect_count += incorrect_[u] != 0;
    for (Survivor& s : survivors_) {
      if (std::memcmp(iota_store_.data() + s.iota_begin, iota_.data(),
                      n * sizeof(graph::NodeId)) != 0) {
        continue;
      }
      if (incorrect_count < s.incorrect_count) {
        std::memcpy(incorrect_store_.data() + s.incorrect_begin,
                    incorrect_.data(), n);
        s.incorrect_count = incorrect_count;
        s.gamma_begin = AppendGamma();
        s.gamma_count = static_cast<uint32_t>(gamma_.size());
      }
      return;
    }
    Survivor s;
    s.iota_begin = static_cast<uint32_t>(iota_store_.size());
    std::memcpy(iota_store_.Append(n), iota_.data(),
                n * sizeof(graph::NodeId));
    s.incorrect_begin = static_cast<uint32_t>(incorrect_store_.size());
    std::memcpy(incorrect_store_.Append(n), incorrect_.data(), n);
    s.gamma_begin = AppendGamma();
    s.gamma_count = static_cast<uint32_t>(gamma_.size());
    s.incorrect_count = incorrect_count;
    survivors_.push_back(s);
  }

  /// Copies the current γ stack into the gamma store; returns the slice
  /// start.
  uint32_t AppendGamma() {
    auto begin = static_cast<uint32_t>(gamma_store_.size());
    for (size_t i = 0; i < gamma_.size(); ++i) {
      gamma_store_.push_back(gamma_.entry(i));
    }
    return begin;
  }

  /// Converts the survivors to the public map/set Embedding shape — the
  /// only place the matcher touches the general-purpose allocator, and it
  /// runs once per pattern, not once per raw emission.
  std::vector<Embedding> MaterializeSurvivors() const {
    const size_t n = pattern_.nodes.size();
    std::vector<Embedding> out;
    out.reserve(survivors_.size());
    for (const Survivor& s : survivors_) {
      Embedding m;
      for (size_t u = 0; u < n; ++u) {
        m.iota[static_cast<int>(u)] = iota_store_[s.iota_begin + u];
        if (incorrect_store_[s.incorrect_begin + u] != 0) {
          m.incorrect_nodes.insert(static_cast<int>(u));
        }
      }
      for (uint32_t g = 0; g < s.gamma_count; ++g) {
        const GammaStack::Entry& e = gamma_store_[s.gamma_begin + g];
        m.gamma[*e.var] = *e.value;
      }
      out.push_back(std::move(m));
    }
    return out;
  }

  /// Template evaluation once a full injection for node u is on the γ
  /// stack: r marks the node correct, else r̂ marks it incorrect.
  void EvaluateNode(NodePlan& plan, int u, graph::NodeId v,
                    const pdg::Node& gnode) {
    const PatternNode& pnode = pattern_.nodes[u];
    bool matched = false;
    bool correct = false;
    if (pnode.exact.empty()) {
      matched = true;  // A node without an exact template matches
      correct = true;  // structurally.
    } else if (CheckExact(plan, static_cast<size_t>(u), v, pnode, gnode)) {
      matched = true;
      correct = true;
    } else if (!pnode.approx.empty() &&
               CheckApprox(plan, static_cast<size_t>(u), v, pnode, gnode)) {
      matched = true;
      correct = false;
    }
    if (!matched) return;
    incorrect_[u] = correct ? 0 : 1;
    Search();
    incorrect_[u] = 0;
  }

  /// Enumerates injections of plan.fresh_pattern into plan.fresh_graph in
  /// the same lexicographic order as EnumerateInjections, evaluating each
  /// in place — no binding maps are materialized.
  void TryInjections(NodePlan& plan, int u, graph::NodeId v,
                     const pdg::Node& gnode, size_t fp_index) {
    if (fp_index == plan.fresh_pattern.size()) {
      EvaluateNode(plan, u, v, gnode);
      return;
    }
    for (size_t t = 0; t < plan.fresh_graph.size(); ++t) {
      if (plan.used[t] != 0) continue;
      plan.used[t] = 1;
      gamma_.Push(plan.fresh_pattern[fp_index], plan.fresh_graph[t]);
      TryInjections(plan, u, v, gnode, fp_index + 1);
      gamma_.PopTo(gamma_.Mark() - 1);
      plan.used[t] = 0;
      if (truncated_) return;
    }
  }

  void Search() {
    if (truncated_) return;
    if (depth_ == pattern_.nodes.size()) {
      EmitEmbedding();
      if (raw_emitted_ >= options_.max_embeddings) truncated_ = true;
      return;
    }
    int u = PickNext();
    NodePlan& plan = plans_[u];
    for (graph::NodeId v : plan.candidates) {
      if (matched_graph_[v] != 0) continue;  // ι must be injective.
      if (stats_ != nullptr && ++stats_->steps > options_.max_steps) {
        truncated_ = true;
        return;
      }
      if (!EdgesConsistent(plan, v)) continue;
      const pdg::Node gnode = epdg_.NodeAt(v);

      iota_[u] = v;
      matched_graph_[v] = 1;
      ++depth_;
      ComputeFresh(plan, gnode);
      if (plan.fresh_pattern.size() <= plan.fresh_graph.size()) {
        plan.used.clear();
        plan.used.resize(plan.fresh_graph.size(), 0);
        TryInjections(plan, u, v, gnode, 0);
      }
      --depth_;
      matched_graph_[v] = 0;
      iota_[u] = graph::kInvalidNode;
      if (truncated_) return;
    }
  }

  const Pattern& pattern_;
  const pdg::Epdg& epdg_;
  const pdg::MatchIndex& index_;
  const MatchOptions& options_;
  MatchStats* stats_;
  Arena* arena_;

  size_t n_graph_ = 0;
  GammaStack gamma_;
  ArenaVec<NodePlan> plans_;
  ArenaVec<graph::NodeId> iota_;  ///< Pattern node -> graph node.
  ArenaVec<char> matched_graph_;  ///< Graph nodes already in ι.
  ArenaVec<char> incorrect_;      ///< Per-pattern-node incorrect mark.
  /// Binding-independent template memo, 2 bits per check per (u, v):
  /// bits 0-1 exact (0 unknown / 1 match / 2 fail), bits 2-3 approx.
  ArenaVec<uint8_t> memo_;
  /// Flat embedding stores: each survivor owns one ι slice and one
  /// incorrect-mark slice of pattern-node length, plus a γ slice.
  ArenaVec<graph::NodeId> iota_store_;
  ArenaVec<uint8_t> incorrect_store_;
  ArenaVec<GammaStack::Entry> gamma_store_;
  ArenaVec<Survivor> survivors_;
  size_t raw_emitted_ = 0;  ///< Pre-dedup count; bounds the search.
  size_t depth_ = 0;
  bool truncated_ = false;
};

}  // namespace

std::vector<Embedding> MatchPattern(const Pattern& pattern,
                                    const pdg::Epdg& epdg,
                                    const MatchOptions& options,
                                    MatchStats* stats) {
  pdg::MatchIndex index(epdg, options.scratch_arena);
  return MatchPattern(pattern, epdg, index, options, stats);
}

std::vector<Embedding> MatchPattern(const Pattern& pattern,
                                    const pdg::Epdg& epdg,
                                    const pdg::MatchIndex& index,
                                    const MatchOptions& options,
                                    MatchStats* stats) {
  // The step counter doubles as the max_steps enforcement point, so the
  // matcher always runs with a stats block.
  MatchStats local_stats;
  // Callers on the grading hot path pass a pooled arena (reset once per
  // submission); one-off callers get a private arena for the call.
  Arena local_arena;
  Arena* arena =
      options.scratch_arena != nullptr ? options.scratch_arena : &local_arena;
  IndexedMatcher matcher(pattern, epdg, index, options,
                         stats != nullptr ? stats : &local_stats, arena);
  return matcher.Run();
}

}  // namespace jfeed::core
