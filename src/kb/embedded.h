#ifndef JFEED_KB_EMBEDDED_H_
#define JFEED_KB_EMBEDDED_H_

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "support/status.h"

namespace jfeed::kb {

/// The text of data/patterns.kb and data/assignments.kb, embedded at build
/// time by embed_kb.cmake as constant-initialized string literals: the
/// knowledge base needs no file at run time, and an edit to either file
/// takes effect on the next build.
std::string_view EmbeddedPatternsText();
std::string_view EmbeddedAssignmentsText();

/// A binary built with a malformed knowledge base grades nobody: the first
/// use of the knowledge base prints the parse error and aborts.
[[noreturn]] inline void AbortOnMalformedKnowledgeBase(const Status& status) {
  std::fprintf(stderr, "malformed knowledge base: %s\n",
               status.message().c_str());
  std::abort();
}

}  // namespace jfeed::kb

#endif  // JFEED_KB_EMBEDDED_H_
