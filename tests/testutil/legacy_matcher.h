// The pre-index Algorithm-1 backtracker, kept beside the tests as the
// equivalence reference for core::MatchPattern: a per-pattern type scan for
// the search space Φ and map-based ι/γ. Production must return the same
// canonical embeddings, byte for byte, in no more steps.

#ifndef JFEED_TESTS_TESTUTIL_LEGACY_MATCHER_H_
#define JFEED_TESTS_TESTUTIL_LEGACY_MATCHER_H_

#include <string>
#include <vector>

#include "core/pattern.h"
#include "core/pattern_matcher.h"
#include "pdg/epdg.h"

namespace jfeed::core::testutil {

/// Algorithm 1 by the reference backtracker; canonicalized like
/// core::MatchPattern. `options.scratch_arena` is ignored; `stats` may be
/// null.
std::vector<Embedding> LegacyMatchPattern(const Pattern& pattern,
                                          const pdg::Epdg& epdg,
                                          const MatchOptions& options = {},
                                          MatchStats* stats = nullptr);

/// Checks `m` against Definition 7: every ι(u) has a compatible type, ι is
/// injective, every pattern edge is present in the graph, each node's
/// content matches r or r̂ under γ (r when the node is not marked
/// incorrect), and γ is injective. Returns the first violation, or the
/// empty string when `m` is a valid embedding of `pattern` in `epdg`.
std::string Definition7Violation(const Pattern& pattern,
                                 const pdg::Epdg& epdg, const Embedding& m);

}  // namespace jfeed::core::testutil

#endif  // JFEED_TESTS_TESTUTIL_LEGACY_MATCHER_H_
