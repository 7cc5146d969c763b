#include "tests/testutil/legacy_matcher.h"

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

namespace jfeed::core::testutil {

namespace {

/// Collapses embeddings sharing the same ι to the best one (fewest
/// incorrect nodes; first found wins ties), preserving discovery order.
std::vector<Embedding> CanonicalizeEmbeddings(std::vector<Embedding> all) {
  std::vector<Embedding> out;
  out.reserve(all.size());
  // ι encoded as raw bytes keys the groups exactly (not just by hash).
  std::unordered_map<std::string, size_t> by_iota;
  by_iota.reserve(all.size());
  std::string key;
  for (auto& m : all) {
    key.clear();
    for (const auto& [u, v] : m.iota) {
      key.append(reinterpret_cast<const char*>(&u), sizeof(u));
      key.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    auto [it, inserted] = by_iota.emplace(key, out.size());
    if (inserted) {
      out.push_back(std::move(m));
      continue;
    }
    Embedding& existing = out[it->second];
    if (m.incorrect_nodes.size() < existing.incorrect_nodes.size()) {
      existing = std::move(m);
    }
  }
  return out;
}

class Matcher {
 public:
  Matcher(const Pattern& pattern, const pdg::Epdg& epdg,
          const MatchOptions& options, MatchStats* stats)
      : pattern_(pattern), epdg_(epdg), options_(options), stats_(stats) {}

  std::vector<Embedding> Run() {
    // Step 1: compute the search space Φ (type-compatible graph nodes).
    const size_t n_pattern = pattern_.nodes.size();
    search_space_.resize(n_pattern);
    for (size_t u = 0; u < n_pattern; ++u) {
      for (size_t v = 0; v < epdg_.NodeCount(); ++v) {
        auto id = static_cast<graph::NodeId>(v);
        if (TypeMatches(pattern_.nodes[u].type, epdg_.NodeAt(id).type)) {
          search_space_[u].push_back(id);
        }
      }
      if (search_space_[u].empty()) return {};  // Some node cannot match.
    }
    // Precompute pattern adjacency for the edge checks and the ordering
    // heuristic.
    incident_edges_.resize(n_pattern);
    for (const auto& edge : pattern_.edges) {
      incident_edges_[edge.source].push_back(&edge);
      incident_edges_[edge.target].push_back(&edge);
    }
    matched_graph_nodes_.assign(epdg_.NodeCount(), false);
    // Step 2: backtracking search from the empty embedding.
    Embedding empty;
    Search(empty);
    if (stats_ != nullptr) stats_->truncated = truncated_;
    return CanonicalizeEmbeddings(std::move(embeddings_));
  }

 private:
  /// Chooses the next unmatched pattern node: prefer nodes connected to the
  /// current embedding (so edge checks prune early), then smaller candidate
  /// sets. This is the "processing order of the pattern nodes" knob the
  /// paper mentions in Sec. IV.
  int PickNext(const Embedding& m) const {
    if (!options_.use_ordering_heuristic) {
      for (size_t u = 0; u < pattern_.nodes.size(); ++u) {
        if (m.iota.count(static_cast<int>(u)) == 0) {
          return static_cast<int>(u);
        }
      }
      return -1;
    }
    int best = -1;
    int best_connected = -1;
    size_t best_space = 0;
    for (size_t u = 0; u < pattern_.nodes.size(); ++u) {
      if (m.iota.count(static_cast<int>(u)) > 0) continue;
      int connected = 0;
      for (const auto* edge : incident_edges_[u]) {
        int other = edge->source == static_cast<int>(u) ? edge->target
                                                        : edge->source;
        if (m.iota.count(other) > 0) ++connected;
      }
      size_t space = search_space_[u].size();
      if (best == -1 || connected > best_connected ||
          (connected == best_connected && space < best_space)) {
        best = static_cast<int>(u);
        best_connected = connected;
        best_space = space;
      }
    }
    return best;
  }

  /// Definition 7 condition (2) for the newly added node: every pattern edge
  /// between u and an already-matched node must exist in the graph with the
  /// same type and orientation.
  bool EdgesConsistent(int u, graph::NodeId v, const Embedding& m) const {
    for (const auto* edge : incident_edges_[u]) {
      if (edge->source == u) {
        auto it = m.iota.find(edge->target);
        if (it != m.iota.end() &&
            !epdg_.HasEdge(v, it->second, edge->type)) {
          return false;
        }
      } else {
        auto it = m.iota.find(edge->source);
        if (it != m.iota.end() &&
            !epdg_.HasEdge(it->second, v, edge->type)) {
          return false;
        }
      }
    }
    return true;
  }

  /// γ mutation helpers: the bound-submission-variable multiset is
  /// maintained incrementally alongside γ, so the fresh-variable split per
  /// candidate does not re-walk the whole binding.
  void Bind(const std::string& pattern_var, const std::string& value,
            Embedding& m) {
    m.gamma[pattern_var] = value;
    ++bound_value_counts_[value];
  }
  void Unbind(const std::string& pattern_var, Embedding& m) {
    auto it = m.gamma.find(pattern_var);
    if (it == m.gamma.end()) return;
    auto count = bound_value_counts_.find(it->second);
    if (count != bound_value_counts_.end() && --count->second == 0) {
      bound_value_counts_.erase(count);
    }
    m.gamma.erase(it);
  }
  bool ValueBound(const std::string& value) const {
    return bound_value_counts_.count(value) > 0;
  }

  void Search(Embedding& m) {
    if (truncated_) return;
    if (m.iota.size() == pattern_.nodes.size()) {
      embeddings_.push_back(m);
      if (embeddings_.size() >= options_.max_embeddings) truncated_ = true;
      return;
    }
    int u = PickNext(m);
    const PatternNode& pnode = pattern_.nodes[u];
    for (graph::NodeId v : search_space_[u]) {
      if (matched_graph_nodes_[v]) continue;  // ι must be injective.
      if (stats_ != nullptr && ++stats_->steps > options_.max_steps) {
        truncated_ = true;
        return;
      }
      if (!EdgesConsistent(u, v, m)) continue;
      const pdg::Node gnode = epdg_.NodeAt(v);

      // Variable matching: new pattern variables of this node against new
      // submission variables of the graph node (injections; DESIGN.md §3).
      std::set<std::string> node_vars = pnode.exact.variables();
      node_vars.insert(pnode.approx.variables().begin(),
                       pnode.approx.variables().end());
      std::set<std::string> fresh_pattern_vars;
      for (const auto& var : node_vars) {
        if (m.gamma.count(var) == 0) fresh_pattern_vars.insert(var);
      }
      std::set<std::string> fresh_graph_vars;
      gnode.ForEachVar([&](const std::string& var) {
        if (!ValueBound(var)) fresh_graph_vars.insert(var);
      });

      m.iota[u] = v;
      matched_graph_nodes_[v] = true;
      for (const VarBinding& binding :
           EnumerateInjections(fresh_pattern_vars, fresh_graph_vars)) {
        for (const auto& [pv, sv] : binding) Bind(pv, sv, m);
        bool correct = false;
        bool matched = false;
        if (pnode.exact.empty()) {
          // A node without an exact template matches structurally.
          matched = true;
          correct = true;
        } else {
          if (stats_ != nullptr) ++stats_->regex_checks;
          if (pnode.exact.Matches(gnode.content, m.gamma)) {
            matched = true;
            correct = true;
          } else if (!pnode.approx.empty() &&
                     pnode.approx.Matches(gnode.content, m.gamma)) {
            if (stats_ != nullptr) ++stats_->regex_checks;
            matched = true;
            correct = false;
          }
        }
        if (matched) {
          if (!correct) m.incorrect_nodes.insert(u);
          Search(m);
          m.incorrect_nodes.erase(u);
        }
        for (const auto& kv : binding) Unbind(kv.first, m);
        if (truncated_) break;
      }
      matched_graph_nodes_[v] = false;
      m.iota.erase(u);
      if (truncated_) return;
    }
  }

  const Pattern& pattern_;
  const pdg::Epdg& epdg_;
  const MatchOptions& options_;
  MatchStats* stats_;
  std::vector<std::vector<graph::NodeId>> search_space_;
  std::vector<std::vector<const Pattern::Edge*>> incident_edges_;
  std::vector<bool> matched_graph_nodes_;
  /// Submission variables currently bound by γ, with multiplicity — kept in
  /// sync by Bind/Unbind.
  std::map<std::string, int> bound_value_counts_;
  std::vector<Embedding> embeddings_;
  bool truncated_ = false;
};

}  // namespace

std::vector<Embedding> LegacyMatchPattern(const Pattern& pattern,
                                          const pdg::Epdg& epdg,
                                          const MatchOptions& options,
                                          MatchStats* stats) {
  MatchStats local_stats;
  Matcher matcher(pattern, epdg, options,
                  stats != nullptr ? stats : &local_stats);
  return matcher.Run();
}

std::string Definition7Violation(const Pattern& pattern,
                                 const pdg::Epdg& epdg, const Embedding& m) {
  if (m.iota.size() != pattern.nodes.size()) {
    return "iota covers " + std::to_string(m.iota.size()) + " of " +
           std::to_string(pattern.nodes.size()) + " pattern nodes";
  }
  std::set<graph::NodeId> images;
  for (const auto& [u, v] : m.iota) {
    images.insert(v);
    const PatternNode& node = pattern.nodes[u];
    const pdg::Node gnode = epdg.NodeAt(v);
    const std::string where =
        "node " + std::to_string(u) + " vs '" + std::string(gnode.content) +
        "'";
    if (!TypeMatches(node.type, gnode.type)) {
      return where + ": type mismatch";
    }
    if (node.exact.empty()) continue;
    bool exact = node.exact.Matches(gnode.content, m.gamma);
    bool approx =
        !node.approx.empty() && node.approx.Matches(gnode.content, m.gamma);
    if (!exact && !approx) return where + ": neither r nor r-hat matches";
    if (!exact && m.incorrect_nodes.count(u) == 0) {
      return where + ": marked correct but r does not match";
    }
  }
  if (images.size() != m.iota.size()) return "iota not injective";
  for (const auto& edge : pattern.edges) {
    if (!epdg.HasEdge(m.iota.at(edge.source), m.iota.at(edge.target),
                      edge.type)) {
      return "edge " + std::to_string(edge.source) + "->" +
             std::to_string(edge.target) + " missing";
    }
  }
  std::set<std::string> bound;
  for (const auto& [pv, sv] : m.gamma) {
    if (!bound.insert(sv).second) return "gamma not injective";
  }
  return "";
}

}  // namespace jfeed::core::testutil
