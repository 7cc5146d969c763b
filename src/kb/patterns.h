#ifndef JFEED_KB_PATTERNS_H_
#define JFEED_KB_PATTERNS_H_

#include <map>
#include <string>
#include <vector>

#include "core/pattern.h"

namespace jfeed::kb {

/// The knowledge base of reusable patterns (paper Sec. I: "Our knowledge
/// base contains twenty four unique patterns"). Pattern variables are
/// globally unique across patterns so that containment constraints — which
/// require disjoint variable sets (Definition 10) — can combine any of them.
class PatternLibrary {
 public:
  /// The process-wide library: data/patterns.kb, embedded at build time and
  /// parsed on first use. A malformed file aborts the process with a
  /// one-line message naming the file, the line and the rule broken.
  static const PatternLibrary& Get();

  /// Looks up a pattern; aborts on an unknown id (programming error).
  const core::Pattern& at(const std::string& id) const;

  bool contains(const std::string& id) const {
    return patterns_.count(id) > 0;
  }

  /// Ids in deterministic (document) order.
  const std::vector<std::string>& ids() const { return ids_; }

  size_t size() const { return patterns_.size(); }

 private:
  PatternLibrary() = default;

  std::map<std::string, core::Pattern> patterns_;
  std::vector<std::string> ids_;
};

}  // namespace jfeed::kb

#endif  // JFEED_KB_PATTERNS_H_
