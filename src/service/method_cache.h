#ifndef JFEED_SERVICE_METHOD_CACHE_H_
#define JFEED_SERVICE_METHOD_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/submission_matcher.h"
#include "javalang/ast.h"
#include "pdg/epdg.h"
#include "support/clock_cache.h"
#include "support/result.h"

namespace jfeed::service {

/// One pinned method shared across resubmissions: its own EpdgMemory (NOT
/// the recycled worker arena — DESIGN.md §3c pools are reset between
/// submissions, which would invalidate a cached graph), the frozen EPDG
/// built there from the grade's parsed method, and the
/// per-expected-method match cells computed so far. The graph keeps no
/// pointer into the AST it was built from.
///
/// Member order is the destruction contract: `memory` is declared first so
/// it is destroyed LAST — the graph's arrays live in its arena.
struct MethodEntry {
  pdg::EpdgMemory memory;
  std::unique_ptr<pdg::Epdg> graph;  ///< Frozen at build; read-only after.
  core::MethodCellStore cells;
};

/// Cumulative counters of one MethodCache.
struct MethodCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Lookups that returned an error (injected fault at cache.method_lookup)
  /// and sent the submission down the full-regrade path.
  uint64_t fallbacks = 0;

  double HitRate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Content-addressed cache of graded methods: key = (assignment id, method
/// token fingerprint), value = a pinned MethodEntry. On a resubmission that
/// edits one method, every other method's EPDG build and match cells are
/// served from here and only the edited method plus the cross-method
/// combination step re-run — the `partial_hit` disposition.
///
/// Keying by assignment id is what isolates tenants: two assignments whose
/// submissions share a method body (same fingerprint) still get distinct
/// entries, because a cell is only meaningful against its own spec.
///
/// Thread-safe; bounded by a ClockCache like ResultCache. Entries are
/// handed out as shared_ptr, so an evicted entry stays alive until the last
/// grade using it finishes.
class MethodCache {
 public:
  explicit MethodCache(size_t max_entries = 8192) : entries_(max_entries) {}

  MethodCache(const MethodCache&) = delete;
  MethodCache& operator=(const MethodCache&) = delete;

  /// Ok(entry) on a hit, Ok(nullptr) on a miss. An error means the
  /// deterministic fault injector fired at `cache.method_lookup`; the
  /// caller must abandon incremental grading for the whole submission and
  /// fall back to a cold regrade (never wrong feedback, never a poisoned
  /// entry).
  Result<std::shared_ptr<MethodEntry>> Lookup(const std::string& assignment_id,
                                              uint64_t fingerprint);

  /// Publishes an entry, evicting a cold one when full. Returns the entry
  /// now cached under the key: on an insert race the first writer wins and
  /// the loser's entry is discarded, so concurrent workers converge on one
  /// cell store.
  std::shared_ptr<MethodEntry> Insert(const std::string& assignment_id,
                                      uint64_t fingerprint,
                                      std::shared_ptr<MethodEntry> entry);

  /// Builds a pinned entry for `method`: builds its EPDG in the entry's
  /// own memory and freezes the adjacency so concurrent readers never
  /// mutate. Fails (and caches nothing) when the builder fails.
  static Result<std::shared_ptr<MethodEntry>> BuildEntry(
      const java::Method& method);

  MethodCacheStats stats() const;
  size_t size() const;

 private:
  static std::string MakeKey(const std::string& assignment_id,
                             uint64_t fingerprint);

  mutable std::mutex mu_;
  ClockCache<std::shared_ptr<MethodEntry>> entries_;
  MethodCacheStats stats_;
};

}  // namespace jfeed::service

#endif  // JFEED_SERVICE_METHOD_CACHE_H_
