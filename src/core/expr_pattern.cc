#include "core/expr_pattern.h"

#include <algorithm>
#include <functional>

#include "support/regex_cache.h"
#include "support/strings.h"

namespace jfeed::core {

Result<ExprPattern> ExprPattern::Create(std::string tmpl,
                                        std::set<std::string> variables) {
  ExprPattern out;
  out.text_ = tmpl;
  std::string literal;
  size_t i = 0;
  auto flush_literal = [&]() {
    if (!literal.empty()) {
      out.pieces_.push_back({false, std::move(literal)});
      literal.clear();
    }
  };
  while (i < tmpl.size()) {
    char c = tmpl[i];
    if (c == '\\' && i + 1 < tmpl.size()) {
      // Regex escape (\b, \[, ...) — copy verbatim, never a variable.
      literal.push_back(c);
      literal.push_back(tmpl[i + 1]);
      i += 2;
      continue;
    }
    // Note: '$' is deliberately not an identifier character here (unlike in
    // Java source) so that templates can end a variable with the regex
    // end-anchor, e.g. "f \*= fx$".
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < tmpl.size() &&
             (std::isalnum(static_cast<unsigned char>(tmpl[i])) ||
              tmpl[i] == '_')) {
        ++i;
      }
      std::string ident = tmpl.substr(start, i - start);
      if (variables.count(ident) > 0) {
        flush_literal();
        out.pieces_.push_back({true, ident});
        out.used_vars_.insert(ident);
      } else {
        literal += ident;
      }
      continue;
    }
    literal.push_back(c);
    ++i;
  }
  flush_literal();
  // Validate the non-variable skeleton by substituting a plain identifier
  // for every variable.
  std::string probe;
  for (const auto& piece : out.pieces_) {
    probe += piece.is_variable ? "v" : piece.text;
  }
  if (!RegexCache::ThreadLocal().Valid(probe)) {
    return Status::InvalidArgument(
        "expression template does not compile as LiteRegex: " + tmpl);
  }
  return out;
}

bool ExprPattern::Matches(std::string_view content,
                          const VarBinding& gamma) const {
  if (pieces_.empty()) return false;
  std::string regex_text;
  for (const auto& piece : pieces_) {
    if (!piece.is_variable) {
      regex_text += piece.text;
      continue;
    }
    auto it = gamma.find(piece.text);
    if (it == gamma.end()) return false;  // Unbound variable.
    // Whole-word match of the concrete variable name.
    regex_text += "\\b";
    regex_text += RegexEscape(it->second);
    regex_text += "\\b";
  }
  return RegexCache::ThreadLocal().Search(regex_text, content);
}

bool ExprPattern::Matches(std::string_view content,
                          const BindingLookup& gamma,
                          std::string* scratch) const {
  if (pieces_.empty()) return false;
  scratch->clear();
  for (const auto& piece : pieces_) {
    if (!piece.is_variable) {
      *scratch += piece.text;
      continue;
    }
    const std::string* bound = gamma.Find(piece.text);
    if (bound == nullptr) return false;  // Unbound variable.
    // Whole-word match of the concrete variable name.
    *scratch += "\\b";
    RegexEscapeAppend(*bound, scratch);
    *scratch += "\\b";
  }
  return RegexCache::ThreadLocal().Search(*scratch, content);
}

std::vector<VarBinding> EnumerateInjections(const std::set<std::string>& from,
                                            const std::set<std::string>& to) {
  std::vector<VarBinding> out;
  if (from.size() > to.size()) return out;
  std::vector<std::string> sources(from.begin(), from.end());
  std::vector<std::string> targets(to.begin(), to.end());
  // Backtracking over target choices for each source.
  std::vector<bool> used(targets.size(), false);
  VarBinding current;
  // Recursive lambda via explicit stack-free helper.
  std::function<void(size_t)> recurse = [&](size_t index) {
    if (index == sources.size()) {
      out.push_back(current);
      return;
    }
    for (size_t t = 0; t < targets.size(); ++t) {
      if (used[t]) continue;
      used[t] = true;
      current[sources[index]] = targets[t];
      recurse(index + 1);
      current.erase(sources[index]);
      used[t] = false;
    }
  };
  recurse(0);
  return out;
}

}  // namespace jfeed::core
