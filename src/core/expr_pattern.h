#ifndef JFEED_CORE_EXPR_PATTERN_H_
#define JFEED_CORE_EXPR_PATTERN_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "support/result.h"

namespace jfeed::core {

/// Binding of pattern variables to submission variables — the paper's γ.
using VarBinding = std::map<std::string, std::string>;

/// Read-only view of γ for matcher hot paths that keep their bindings in a
/// flat stack instead of a std::map. Find returns the bound submission
/// variable or nullptr.
class BindingLookup {
 public:
  virtual ~BindingLookup() = default;
  virtual const std::string* Find(const std::string& pattern_var) const = 0;
};

/// An *incomplete Java expression* (Definitions 4 and 6): a regex template
/// over normalized Java expression text in which declared pattern variables
/// appear as placeholders. `x \+= s\[x\]` with variables {x, s} matches
/// `odd += a[i]` under γ = {x→i, s→a}? No — under γ = {s→a, x→i} it matches
/// `a[i]` fragments; whole-word boundaries keep `i` from matching inside
/// `int`.
///
/// The template is a regex in the LiteRegex subset (support/lite_regex.h);
/// everything that is not a declared variable is passed through verbatim,
/// so authors can use alternation and character classes (e.g.
/// `x (<|<=) s\.length` as an approximate bound check). Matching uses
/// *search* semantics: the template must occur somewhere inside the node
/// content, which is how the paper's `x = 0` matches `int i = 0`.
class ExprPattern {
 public:
  /// An ExprPattern that matches nothing (used for absent r̂).
  ExprPattern() = default;

  /// Compiles `tmpl` with the given pattern-variable set. Fails when the
  /// non-variable part of the template does not compile as LiteRegex.
  static Result<ExprPattern> Create(std::string tmpl,
                                    std::set<std::string> variables);

  /// True when no template was provided; an empty pattern never matches.
  bool empty() const { return pieces_.empty(); }

  /// Variables referenced by the template.
  const std::set<std::string>& variables() const { return used_vars_; }

  /// The original template text.
  const std::string& text() const { return text_; }

  /// The paper's r ⪯γ c: substitutes γ into the template and searches
  /// `content`. Every variable used by the template must be bound in
  /// `gamma`; unbound variables make the match fail.
  bool Matches(std::string_view content, const VarBinding& gamma) const;

  /// Allocation-free variant for the indexed matcher: bindings come from a
  /// BindingLookup and the substituted regex text is assembled into
  /// `*scratch` (cleared first, capacity reused across calls).
  bool Matches(std::string_view content, const BindingLookup& gamma,
               std::string* scratch) const;

 private:
  struct Piece {
    bool is_variable = false;
    std::string text;  ///< Literal regex fragment, or the variable name.
  };

  std::string text_;
  std::vector<Piece> pieces_;
  std::set<std::string> used_vars_;
};

/// Enumerates all injective mappings of `from` into `to` (the paper's
/// Combinations(X, Y), relaxed to injections — see DESIGN.md §3). Returns
/// exactly one empty mapping when `from` is empty, and nothing when
/// |from| > |to|.
std::vector<VarBinding> EnumerateInjections(
    const std::set<std::string>& from, const std::set<std::string>& to);

}  // namespace jfeed::core

#endif  // JFEED_CORE_EXPR_PATTERN_H_
