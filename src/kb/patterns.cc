#include "kb/patterns.h"

#include <cstdio>
#include <cstdlib>

#include "kb/embedded.h"
#include "kb/serialization.h"

namespace jfeed::kb {

const PatternLibrary& PatternLibrary::Get() {
  static const PatternLibrary* kLibrary = [] {
    auto patterns = ParsePatterns(EmbeddedPatternsText(), "data/patterns.kb");
    if (!patterns.ok()) AbortOnMalformedKnowledgeBase(patterns.status());
    auto* library = new PatternLibrary();
    for (core::Pattern& pattern : *patterns) {
      library->ids_.push_back(pattern.id);
      library->patterns_.emplace(pattern.id, std::move(pattern));
    }
    return library;
  }();
  return *kLibrary;
}

const core::Pattern& PatternLibrary::at(const std::string& id) const {
  auto it = patterns_.find(id);
  if (it == patterns_.end()) {
    std::fprintf(stderr, "unknown pattern id: %s\n", id.c_str());
    std::abort();
  }
  return it->second;
}

}  // namespace jfeed::kb
