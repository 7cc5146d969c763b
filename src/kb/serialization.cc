#include "kb/serialization.h"

#include <charconv>
#include <map>
#include <set>

#include "kb/patterns.h"
#include "support/strings.h"

namespace jfeed::kb {

namespace {

using core::Pattern;
using core::PatternNodeType;

/// Emits "key: value" lines only for non-empty values.
void EmitField(const std::string& indent, const std::string& key,
               const std::string& value, std::string* out) {
  if (value.empty()) return;
  *out += indent + key + ": " + value + "\n";
}

}  // namespace

std::string SerializePattern(const Pattern& pattern) {
  std::string out = "pattern " + pattern.id + "\n";
  EmitField("  ", "name", pattern.name, &out);
  for (const auto& var : pattern.Variables()) {
    out += "  var: " + var + "\n";
  }
  for (const auto& node : pattern.nodes) {
    out += std::string("  node ") + core::PatternNodeTypeName(node.type) +
           "\n";
    EmitField("    ", "exact", node.exact.text(), &out);
    EmitField("    ", "approx", node.approx.text(), &out);
    EmitField("    ", "correct", node.feedback_correct, &out);
    EmitField("    ", "incorrect", node.feedback_incorrect, &out);
  }
  for (const auto& edge : pattern.edges) {
    out += "  edge " + std::string(pdg::EdgeTypeName(edge.type)) + " " +
           std::to_string(edge.source) + " " + std::to_string(edge.target) +
           "\n";
  }
  EmitField("  ", "present", pattern.feedback_present, &out);
  EmitField("  ", "missing", pattern.feedback_missing, &out);
  out += "end\n";
  return out;
}

namespace {

std::string ConstraintKindKeyword(core::ConstraintKind kind) {
  switch (kind) {
    case core::ConstraintKind::kEquality: return "equality";
    case core::ConstraintKind::kEdgeExistence: return "edge";
    case core::ConstraintKind::kContainment: return "containment";
  }
  return "?";
}

}  // namespace

std::string SerializeSpec(const core::AssignmentSpec& spec) {
  std::string out = "assignment " + spec.id + "\n";
  if (!spec.title.empty()) out += "  title: " + spec.title + "\n";
  for (const auto& method : spec.methods) {
    out += "  method " + method.expected_name + "\n";
    for (const auto& use : method.patterns) {
      if (use.pattern == nullptr) continue;
      out += "    use " + use.pattern->id + " " +
             std::to_string(use.expected_count) + "\n";
    }
    for (const auto& constraint : method.constraints) {
      out += "    constraint " + ConstraintKindKeyword(constraint.kind) +
             " " + constraint.id + " " + constraint.pattern_i + " " +
             std::to_string(constraint.node_i);
      if (constraint.kind == core::ConstraintKind::kContainment) {
        // '-' marks an empty supporting set.
        out += " " + (constraint.supporting.empty()
                          ? std::string("-")
                          : Join(constraint.supporting, ","));
      } else {
        out += " " + constraint.pattern_j + " " +
               std::to_string(constraint.node_j);
        if (constraint.kind == core::ConstraintKind::kEdgeExistence) {
          out += std::string(" ") + pdg::EdgeTypeName(constraint.edge_type);
        }
      }
      out += "\n";
      if (constraint.kind == core::ConstraintKind::kContainment) {
        out += "      expr: " + constraint.expr.text() + "\n";
      }
      if (!constraint.feedback_ok.empty()) {
        out += "      ok: " + constraint.feedback_ok + "\n";
      }
      if (!constraint.feedback_fail.empty()) {
        out += "      fail: " + constraint.feedback_fail + "\n";
      }
    }
    out += "  end\n";
  }
  out += "end\n";
  return out;
}

// ---------------------------------------------------------------------------
// Parsing. The knowledge base is parsed on first use in every process, so
// the parsers walk string_views over the text: no streams, no line copies.
// ---------------------------------------------------------------------------

namespace {

/// Pops the next space-separated word off the front of `*rest`; empty when
/// none is left.
std::string_view NextWord(std::string_view* rest) {
  *rest = TrimView(*rest);
  size_t end = rest->find(' ');
  if (end == std::string_view::npos) end = rest->size();
  std::string_view word = rest->substr(0, end);
  rest->remove_prefix(end);
  return word;
}

/// True (and `*rest` advanced past it) when `*rest` starts with `prefix`.
bool ConsumePrefix(std::string_view* rest, std::string_view prefix) {
  if (!StartsWith(*rest, prefix)) return false;
  rest->remove_prefix(prefix.size());
  return true;
}

bool ParseInt(std::string_view word, int* out) {
  auto [end, error] = std::from_chars(word.data(), word.data() + word.size(),
                                      *out);
  return error == std::errc() && end == word.data() + word.size();
}

std::string Quoted(std::string_view text) {
  return "'" + std::string(text) + "'";
}

/// Reads a document one significant line at a time: blank lines and `#`
/// comments are skipped, and each line is a trimmed view into the text.
class LineReader {
 public:
  LineReader(std::string_view text, std::string_view file)
      : text_(text), file_(file) {}

  bool Next() {
    while (pos_ < text_.size()) {
      size_t eol = text_.find('\n', pos_);
      if (eol == std::string_view::npos) eol = text_.size();
      line_ = TrimView(text_.substr(pos_, eol - pos_));
      pos_ = eol + 1;
      ++number_;
      if (!line_.empty() && line_[0] != '#') return true;
    }
    line_ = {};
    return false;
  }

  std::string_view line() const { return line_; }
  int number() const { return number_; }

  /// "<file>:<line>: <rule>".
  std::string At(int line, const std::string& rule) const {
    return std::string(file_) + ":" + std::to_string(line) + ": " + rule;
  }
  Status Error(const std::string& rule) const {
    return Status::ParseError(At(number_, rule));
  }
  Status ErrorAt(int line, const std::string& rule) const {
    return Status::ParseError(At(line, rule));
  }

 private:
  std::string_view text_;
  std::string_view file_;
  size_t pos_ = 0;
  std::string_view line_;
  int number_ = 0;
};

// The keywords are the names the serializers write.
bool ParseNodeType(std::string_view word, PatternNodeType* type) {
  using T = PatternNodeType;
  for (T t : {T::kAssign, T::kBreak, T::kCall, T::kCond, T::kDecl,
              T::kReturn, T::kUntyped}) {
    if (word == core::PatternNodeTypeName(t)) {
      *type = t;
      return true;
    }
  }
  return false;
}

bool ParseEdgeType(std::string_view word, pdg::EdgeType* type) {
  for (pdg::EdgeType t : {pdg::EdgeType::kCtrl, pdg::EdgeType::kData}) {
    if (word == pdg::EdgeTypeName(t)) {
      *type = t;
      return true;
    }
  }
  return false;
}

/// A node's fields as read; `var:` lines may follow the nodes that use
/// them, so templates compile once the block's `end` is reached.
struct RawNode {
  PatternNodeType type = PatternNodeType::kUntyped;
  std::string_view exact, approx, correct, incorrect;
};

/// Parses the body of a `pattern <id>` block up to its `end`.
/// `owner_of_variable` maps each variable of the document's earlier
/// patterns to its pattern.
Result<Pattern> ParsePatternBlock(
    LineReader* in, std::string_view id,
    std::map<std::string, std::string>* owner_of_variable) {
  const int start = in->number();
  std::string_view name, present, missing;
  std::map<std::string, int> variables;  // Declared, with their lines.
  std::vector<RawNode> nodes;
  std::vector<Pattern::Edge> edges;
  while (in->Next()) {
    std::string_view rest = in->line();
    if (rest == "end") {
      core::PatternBuilder builder{std::string(id), std::string(name)};
      for (const auto& [var, line] : variables) builder.Var(var);
      for (const auto& node : nodes) {
        builder.Node(node.type, std::string(node.exact),
                     std::string(node.approx), std::string(node.correct),
                     std::string(node.incorrect));
      }
      for (const auto& edge : edges) {
        if (edge.type == pdg::EdgeType::kCtrl) {
          builder.CtrlEdge(edge.source, edge.target);
        } else {
          builder.DataEdge(edge.source, edge.target);
        }
      }
      builder.Present(std::string(present));
      builder.Missing(std::string(missing));
      auto pattern = builder.Build();
      if (!pattern.ok()) return in->ErrorAt(start, pattern.status().message());
      // A declared variable no template uses is a typo: the name it was
      // meant for is matched as literal text.
      const std::set<std::string> used = pattern->Variables();
      for (const auto& [var, line] : variables) {
        if (used.count(var) == 0) {
          return in->ErrorAt(line, "no template of pattern " + Quoted(id) +
                                       " uses variable " + Quoted(var));
        }
      }
      return pattern;
    }
    if (ConsumePrefix(&rest, "node ")) {
      RawNode& node = nodes.emplace_back();
      rest = TrimView(rest);
      if (!ParseNodeType(rest, &node.type)) {
        return in->Error("unknown pattern node type: " + std::string(rest));
      }
      continue;
    }
    if (ConsumePrefix(&rest, "edge ")) {
      Pattern::Edge edge;
      if (!ParseEdgeType(NextWord(&rest), &edge.type)) {
        return in->Error("unknown edge type in: " + std::string(in->line()));
      }
      if (!ParseInt(NextWord(&rest), &edge.source) ||
          !ParseInt(NextWord(&rest), &edge.target) ||
          !TrimView(rest).empty()) {
        return in->Error("malformed edge line: " + std::string(in->line()));
      }
      edges.push_back(edge);
      continue;
    }
    size_t colon = rest.find(": ");
    std::string_view value;
    if (colon != std::string_view::npos) {
      value = rest.substr(colon + 2);
    } else if (EndsWith(rest, ":")) {
      colon = rest.size() - 1;  // "key:" with an empty value.
    } else {
      return in->Error("expected 'key: value', found: " + std::string(rest));
    }
    std::string_view key = rest.substr(0, colon);
    if (key == "name") {
      name = value;
    } else if (key == "var") {
      auto [owner, fresh] = owner_of_variable->emplace(value, id);
      if (!fresh && owner->second != id) {
        return in->Error("variable " + Quoted(value) +
                         " already belongs to pattern " +
                         Quoted(owner->second) +
                         "; patterns may not share variables (Definition 10)");
      }
      variables.emplace(value, in->number());
    } else if (key == "present") {
      present = value;
    } else if (key == "missing") {
      missing = value;
    } else if (key == "exact" || key == "approx" || key == "correct" ||
               key == "incorrect") {
      if (nodes.empty()) return in->Error(Quoted(key) + " before any node");
      RawNode& node = nodes.back();
      if (key == "exact") node.exact = value;
      if (key == "approx") node.approx = value;
      if (key == "correct") node.correct = value;
      if (key == "incorrect") node.incorrect = value;
    } else {
      return in->Error("unknown directive: " + std::string(key));
    }
  }
  return in->ErrorAt(start, "pattern block " + Quoted(id) + " missing 'end'");
}

}  // namespace

Result<Pattern> ParsePattern(std::string_view text) {
  auto patterns = ParsePatterns(text);
  JFEED_RETURN_IF_ERROR(patterns.status());
  if (patterns->size() != 1) {
    return Status::ParseError("expected exactly one pattern block, found " +
                              std::to_string(patterns->size()));
  }
  return std::move(patterns->front());
}

Result<std::vector<Pattern>> ParsePatterns(std::string_view text,
                                           std::string_view file) {
  LineReader in(text, file);
  std::vector<Pattern> out;
  std::map<std::string, std::string> owner_of_variable;
  while (in.Next()) {
    std::string_view id = in.line();
    if (!ConsumePrefix(&id, "pattern ") || (id = TrimView(id)).empty()) {
      return in.Error("expected 'pattern <id>', found: " +
                      std::string(in.line()));
    }
    for (const Pattern& seen : out) {
      if (seen.id == id) return in.Error("duplicate pattern id " + Quoted(id));
    }
    JFEED_ASSIGN_OR_RETURN(Pattern pattern,
                           ParsePatternBlock(&in, id, &owner_of_variable));
    out.push_back(std::move(pattern));
  }
  return out;
}

namespace {

/// Parses the body of an `assignment <id>` block up to its `end`.
Result<core::AssignmentSpec> ParseSpecBlock(LineReader* in,
                                            std::string_view id,
                                            const PatternLibrary& library) {
  const int start = in->number();
  core::AssignmentSpec spec;
  spec.id = std::string(id);
  core::MethodSpec* method = nullptr;
  // The constraint that `expr:`, `ok:` and `fail:` lines refine, and the
  // header line of a containment constraint still missing its `expr:`.
  core::Constraint* constraint = nullptr;
  int missing_expr = 0;

  auto require_expr = [&]() -> Status {
    if (missing_expr == 0) return Status::OK();
    return in->ErrorAt(missing_expr, "containment constraint " +
                                         Quoted(constraint->id) +
                                         " has no 'expr:' line");
  };
  // A constraint may name only patterns its method uses (above it)...
  auto used_pattern = [&](const std::string& constraint_id,
                          std::string_view pattern_id)
      -> Result<const Pattern*> {
    for (const auto& use : method->patterns) {
      if (use.pattern->id == pattern_id) return use.pattern;
    }
    return in->Error("constraint " + Quoted(constraint_id) +
                     " names pattern " + Quoted(pattern_id) +
                     " that method " + Quoted(method->expected_name) +
                     " does not use");
  };
  // ...and only nodes those patterns have.
  auto node_of = [&](const Pattern& pattern,
                     std::string_view word) -> Result<int> {
    int node = -1;
    if (ParseInt(word, &node) && node >= 0 &&
        node < static_cast<int>(pattern.nodes.size())) {
      return node;
    }
    return in->Error("node " + std::string(word) +
                     " is not a node of pattern " + Quoted(pattern.id) +
                     " (it has " + std::to_string(pattern.nodes.size()) +
                     " nodes)");
  };

  while (in->Next()) {
    std::string_view rest = in->line();
    if (rest == "end") {
      if (method == nullptr) return spec;
      JFEED_RETURN_IF_ERROR(require_expr());
      method = nullptr;
      constraint = nullptr;
      continue;
    }
    if (ConsumePrefix(&rest, "title: ")) {
      spec.title = std::string(rest);
      continue;
    }
    if (ConsumePrefix(&rest, "method ")) {
      if (method != nullptr) {
        return in->Error("method " + Quoted(method->expected_name) +
                         " missing 'end'");
      }
      method = &spec.methods.emplace_back();
      method->expected_name = std::string(TrimView(rest));
      continue;
    }
    if (method == nullptr) return in->Error("directive outside a method block");

    if (ConsumePrefix(&rest, "use ")) {
      JFEED_RETURN_IF_ERROR(require_expr());
      constraint = nullptr;
      std::string pattern_id(NextWord(&rest));
      if (!library.contains(pattern_id)) {
        return Status::NotFound(
            in->At(in->number(), "unknown pattern id: " + pattern_id));
      }
      core::PatternUse use;
      use.pattern = &library.at(pattern_id);
      if (!ParseInt(NextWord(&rest), &use.expected_count) ||
          !TrimView(rest).empty()) {
        return in->Error("malformed use line");
      }
      method->patterns.push_back(std::move(use));
      continue;
    }
    if (ConsumePrefix(&rest, "constraint ")) {
      JFEED_RETURN_IF_ERROR(require_expr());
      std::string_view kind = NextWord(&rest);
      core::Constraint c;
      c.id = std::string(NextWord(&rest));
      for (const auto& seen : method->constraints) {
        if (seen.id == c.id) {
          return in->Error("duplicate constraint id " + Quoted(c.id) +
                           " in method " + Quoted(method->expected_name));
        }
      }
      JFEED_ASSIGN_OR_RETURN(const Pattern* main,
                             used_pattern(c.id, NextWord(&rest)));
      c.pattern_i = main->id;
      JFEED_ASSIGN_OR_RETURN(c.node_i, node_of(*main, NextWord(&rest)));
      if (kind == "equality" || kind == "edge") {
        c.kind = kind == "edge" ? core::ConstraintKind::kEdgeExistence
                                : core::ConstraintKind::kEquality;
        JFEED_ASSIGN_OR_RETURN(const Pattern* other,
                               used_pattern(c.id, NextWord(&rest)));
        c.pattern_j = other->id;
        JFEED_ASSIGN_OR_RETURN(c.node_j, node_of(*other, NextWord(&rest)));
        if (kind == "edge" && !ParseEdgeType(NextWord(&rest), &c.edge_type)) {
          return in->Error("unknown edge type in: " + std::string(in->line()));
        }
      } else if (kind == "containment") {
        c.kind = core::ConstraintKind::kContainment;
        std::string_view supports = NextWord(&rest);  // '-' for none.
        if (supports.empty()) return in->Error("malformed containment line");
        if (supports != "-") {
          for (const auto& support : Split(supports, ',')) {
            JFEED_RETURN_IF_ERROR(used_pattern(c.id, support).status());
            c.supporting.push_back(support);
          }
        }
      } else {
        return in->Error("unknown constraint kind: " + std::string(kind));
      }
      if (!TrimView(rest).empty()) {
        return in->Error("malformed constraint line");
      }
      missing_expr =
          c.kind == core::ConstraintKind::kContainment ? in->number() : 0;
      constraint = &method->constraints.emplace_back(std::move(c));
      continue;
    }
    if (ConsumePrefix(&rest, "expr: ")) {
      if (constraint == nullptr ||
          constraint->kind != core::ConstraintKind::kContainment) {
        return in->Error("'expr:' outside a containment constraint");
      }
      // The expression ranges over the main and supporting patterns'
      // variables, which are disjoint across the library.
      std::set<std::string> vars =
          library.at(constraint->pattern_i).Variables();
      for (const auto& support : constraint->supporting) {
        auto sv = library.at(support).Variables();
        vars.insert(sv.begin(), sv.end());
      }
      auto expr = core::ExprPattern::Create(std::string(rest), vars);
      if (!expr.ok()) return in->Error(expr.status().message());
      constraint->expr = std::move(*expr);
      missing_expr = 0;
      continue;
    }
    if (ConsumePrefix(&rest, "ok: ")) {
      if (constraint == nullptr) return in->Error("'ok:' outside a constraint");
      constraint->feedback_ok = std::string(rest);
      continue;
    }
    if (ConsumePrefix(&rest, "fail: ")) {
      if (constraint == nullptr) {
        return in->Error("'fail:' outside a constraint");
      }
      constraint->feedback_fail = std::string(rest);
      continue;
    }
    return in->Error("unknown directive: " + std::string(in->line()));
  }
  return in->ErrorAt(start, "assignment block " + Quoted(id) +
                                " missing 'end'");
}

}  // namespace

Result<core::AssignmentSpec> ParseSpec(std::string_view text,
                                       const PatternLibrary& library) {
  auto specs = ParseSpecs(text, library, "<input>");
  JFEED_RETURN_IF_ERROR(specs.status());
  if (specs->size() != 1) {
    return Status::ParseError("expected exactly one assignment block, found " +
                              std::to_string(specs->size()));
  }
  return std::move(specs->front().spec);
}

Result<std::vector<ParsedSpec>> ParseSpecs(std::string_view text,
                                           const PatternLibrary& library,
                                           std::string_view file) {
  LineReader in(text, file);
  std::vector<ParsedSpec> out;
  while (in.Next()) {
    std::string_view id = in.line();
    if (!ConsumePrefix(&id, "assignment ") || (id = TrimView(id)).empty()) {
      return in.Error("expected 'assignment <id>', found: " +
                      std::string(in.line()));
    }
    for (const ParsedSpec& seen : out) {
      if (seen.spec.id == id) {
        return in.Error("duplicate assignment id " + Quoted(id));
      }
    }
    ParsedSpec parsed;
    parsed.line = in.number();
    JFEED_ASSIGN_OR_RETURN(parsed.spec, ParseSpecBlock(&in, id, library));
    out.push_back(std::move(parsed));
  }
  return out;
}

}  // namespace jfeed::kb
