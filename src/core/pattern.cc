#include "core/pattern.h"

#include <algorithm>

#include "support/strings.h"

namespace jfeed::core {

bool TypeMatches(PatternNodeType pattern, pdg::NodeType node) {
  switch (pattern) {
    case PatternNodeType::kUntyped: return true;
    case PatternNodeType::kAssign: return node == pdg::NodeType::kAssign;
    case PatternNodeType::kBreak: return node == pdg::NodeType::kBreak;
    case PatternNodeType::kCall: return node == pdg::NodeType::kCall;
    case PatternNodeType::kCond: return node == pdg::NodeType::kCond;
    case PatternNodeType::kDecl: return node == pdg::NodeType::kDecl;
    case PatternNodeType::kReturn: return node == pdg::NodeType::kReturn;
  }
  return false;
}

const char* PatternNodeTypeName(PatternNodeType type) {
  switch (type) {
    case PatternNodeType::kAssign: return "Assign";
    case PatternNodeType::kBreak: return "Break";
    case PatternNodeType::kCall: return "Call";
    case PatternNodeType::kCond: return "Cond";
    case PatternNodeType::kDecl: return "Decl";
    case PatternNodeType::kReturn: return "Return";
    case PatternNodeType::kUntyped: return "Untyped";
  }
  return "?";
}

std::set<std::string> Pattern::Variables() const {
  std::set<std::string> out;
  for (const auto& node : nodes) {
    out.insert(node.exact.variables().begin(), node.exact.variables().end());
    out.insert(node.approx.variables().begin(),
               node.approx.variables().end());
  }
  return out;
}

Status Pattern::Validate() const {
  if (id.empty()) return Status::InvalidArgument("pattern has no id");
  if (nodes.empty()) {
    return Status::InvalidArgument("pattern '" + id + "' has no nodes");
  }
  for (const auto& edge : edges) {
    if (edge.source < 0 || edge.source >= static_cast<int>(nodes.size()) ||
        edge.target < 0 || edge.target >= static_cast<int>(nodes.size())) {
      return Status::InvalidArgument("pattern '" + id +
                                     "' has an out-of-range edge");
    }
    if (edge.source == edge.target) {
      return Status::InvalidArgument("pattern '" + id +
                                     "' has a self-loop edge");
    }
  }
  // Definition 4: variables of r̂ must be a subset of variables of r.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::set<std::string>& exact_vars = nodes[i].exact.variables();
    for (const auto& v : nodes[i].approx.variables()) {
      if (exact_vars.count(v) == 0) {
        return Status::InvalidArgument(
            "pattern '" + id + "' node " + std::to_string(i) +
            ": approximate template uses variable '" + v +
            "' that the exact template does not");
      }
    }
  }
  return Status::OK();
}

std::string InstantiateFeedback(const std::string& tmpl,
                                const VarBinding& gamma) {
  std::string out;
  out.reserve(tmpl.size());
  size_t i = 0;
  while (i < tmpl.size()) {
    if (tmpl[i] == '{') {
      size_t close = tmpl.find('}', i);
      if (close != std::string::npos) {
        std::string var = tmpl.substr(i + 1, close - i - 1);
        auto it = gamma.find(var);
        out += it != gamma.end() ? it->second : var;
        i = close + 1;
        continue;
      }
    }
    out.push_back(tmpl[i]);
    ++i;
  }
  return out;
}

std::string InstantiateFeedback(const std::string& tmpl,
                                const BindingLookup& gamma) {
  std::string out;
  out.reserve(tmpl.size());
  size_t i = 0;
  while (i < tmpl.size()) {
    if (tmpl[i] == '{') {
      size_t close = tmpl.find('}', i);
      if (close != std::string::npos) {
        std::string var = tmpl.substr(i + 1, close - i - 1);
        const std::string* bound = gamma.Find(var);
        out += bound != nullptr ? *bound : var;
        i = close + 1;
        continue;
      }
    }
    out.push_back(tmpl[i]);
    ++i;
  }
  return out;
}

PatternBuilder::PatternBuilder(std::string id, std::string name) {
  pattern_.id = std::move(id);
  pattern_.name = std::move(name);
}

PatternBuilder& PatternBuilder::Var(const std::string& name) {
  variables_.insert(name);
  return *this;
}

PatternBuilder& PatternBuilder::Node(PatternNodeType type,
                                     const std::string& exact,
                                     const std::string& approx,
                                     const std::string& feedback_correct,
                                     const std::string& feedback_incorrect) {
  PatternNode node;
  node.type = type;
  if (!exact.empty()) {
    auto compiled = ExprPattern::Create(exact, variables_);
    if (!compiled.ok()) {
      if (deferred_error_.ok()) deferred_error_ = compiled.status();
    } else {
      node.exact = std::move(*compiled);
    }
  }
  if (!approx.empty()) {
    auto compiled = ExprPattern::Create(approx, variables_);
    if (!compiled.ok()) {
      if (deferred_error_.ok()) deferred_error_ = compiled.status();
    } else {
      node.approx = std::move(*compiled);
    }
  }
  node.feedback_correct = feedback_correct;
  node.feedback_incorrect = feedback_incorrect;
  pattern_.nodes.push_back(std::move(node));
  return *this;
}

PatternBuilder& PatternBuilder::CtrlEdge(int source, int target) {
  pattern_.edges.push_back({source, target, pdg::EdgeType::kCtrl});
  return *this;
}

PatternBuilder& PatternBuilder::DataEdge(int source, int target) {
  pattern_.edges.push_back({source, target, pdg::EdgeType::kData});
  return *this;
}

PatternBuilder& PatternBuilder::Present(const std::string& feedback) {
  pattern_.feedback_present = feedback;
  return *this;
}

PatternBuilder& PatternBuilder::Missing(const std::string& feedback) {
  pattern_.feedback_missing = feedback;
  return *this;
}

Result<Pattern> PatternBuilder::Build() {
  JFEED_RETURN_IF_ERROR(deferred_error_);
  JFEED_RETURN_IF_ERROR(pattern_.Validate());
  return std::move(pattern_);
}

}  // namespace jfeed::core
