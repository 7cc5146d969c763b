#ifndef JFEED_CORE_PATTERN_H_
#define JFEED_CORE_PATTERN_H_

#include <set>
#include <string>
#include <vector>

#include "core/expr_pattern.h"
#include "pdg/epdg.h"
#include "support/result.h"

namespace jfeed::core {

/// Pattern-node types (Definition 4): the graph-node types plus Untyped,
/// which matches any graph node.
enum class PatternNodeType {
  kAssign,
  kBreak,
  kCall,
  kCond,
  kDecl,
  kReturn,
  kUntyped,
};

/// True when a pattern node of type `pattern` may match a graph node of
/// type `node` (Definition 7, condition 1).
bool TypeMatches(PatternNodeType pattern, pdg::NodeType node);

const char* PatternNodeTypeName(PatternNodeType type);

/// A pattern node u = (t_u, r, r̂, f_c, f_i) — Definition 4. `exact` is the
/// incomplete Java expression r; `approx` is the approximate expression r̂
/// (its variables must be a subset of r's). Feedback templates may mention
/// pattern variables in braces: "{x} should be initialized to 0".
struct PatternNode {
  PatternNodeType type = PatternNodeType::kUntyped;
  ExprPattern exact;
  ExprPattern approx;
  std::string feedback_correct;
  std::string feedback_incorrect;
};

/// A pattern p = (U, F, f_p, f_m) — Definition 5 — plus identity metadata
/// for the knowledge base.
struct Pattern {
  struct Edge {
    int source = 0;
    int target = 0;
    pdg::EdgeType type = pdg::EdgeType::kCtrl;
  };

  std::string id;    ///< Knowledge-base identifier, e.g. "odd-positions".
  std::string name;  ///< Human-readable label.
  std::vector<PatternNode> nodes;
  std::vector<Edge> edges;
  std::string feedback_present;  ///< f_p.
  std::string feedback_missing;  ///< f_m.

  /// All pattern variables used by any node.
  std::set<std::string> Variables() const;

  /// Structural sanity: edge endpoints in range, approx-variable subsets.
  Status Validate() const;
};

/// Instantiates a feedback template: "{x} is initialized to 0" with
/// γ = {x→i} becomes "i is initialized to 0". Unbound variables keep their
/// pattern name so missing-pattern feedback stays readable.
std::string InstantiateFeedback(const std::string& tmpl,
                                const VarBinding& gamma);

/// Same substitution with bindings resolved through a BindingLookup —
/// identical output to the map form for a lookup with the same contents.
std::string InstantiateFeedback(const std::string& tmpl,
                                const BindingLookup& gamma);

/// Fluent construction of patterns (used by the knowledge base and tests):
///
///   Pattern p = PatternBuilder("odd-positions", "Accessing odd positions")
///       .Var("x").Var("s")
///       .Node(PatternNodeType::kAssign, "x = 0", "x = 1",
///             "{x} is initialized to 0", "{x} should be initialized to 0")
///       ...
///       .CtrlEdge(3, 4)
///       .Present("...").Missing("...")
///       .Build();
class PatternBuilder {
 public:
  PatternBuilder(std::string id, std::string name);

  /// Declares a pattern variable usable in subsequent node templates.
  PatternBuilder& Var(const std::string& name);

  /// Adds a node with exact template `exact` and optional approximate
  /// template `approx` (empty string = none). Returns *this; node indexes
  /// are assigned in insertion order starting at 0.
  PatternBuilder& Node(PatternNodeType type, const std::string& exact,
                       const std::string& approx = "",
                       const std::string& feedback_correct = "",
                       const std::string& feedback_incorrect = "");

  PatternBuilder& CtrlEdge(int source, int target);
  PatternBuilder& DataEdge(int source, int target);

  PatternBuilder& Present(const std::string& feedback);
  PatternBuilder& Missing(const std::string& feedback);

  /// Finalizes the pattern; fails on invalid templates or edges.
  Result<Pattern> Build();

 private:
  Pattern pattern_;
  std::set<std::string> variables_;
  Status deferred_error_;
};

}  // namespace jfeed::core

#endif  // JFEED_CORE_PATTERN_H_
