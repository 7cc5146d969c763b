#ifndef JFEED_SCHED_RESULT_CACHE_H_
#define JFEED_SCHED_RESULT_CACHE_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "service/pipeline.h"
#include "support/clock_cache.h"

namespace jfeed::sched {

/// 64-bit fingerprint of the lexed-token stream of a Java source: each
/// token's kind and spelling is folded into an FNV-1a/splitmix chain, so two
/// submissions that differ only in comments, whitespace, or line layout hash
/// identically — which is exactly the duplicate mass MOOC batches carry.
/// Positions (line/column) are deliberately excluded from the hash; see
/// ResultCache for what that implies. Sources the lexer rejects fall back to
/// a raw-byte hash (domain-separated from token hashes), so unlexable
/// garbage still dedups byte-identical copies and nothing collides with a
/// real token stream.
uint64_t TokenFingerprint(const std::string& source);

/// Cumulative counters of one ResultCache.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Content-addressed grading-result cache: key = (assignment id, token
/// fingerprint of the source), value = the full GradingOutcome. Duplicate
/// submissions — within a batch or across batches — cost one grade.
///
/// Equivalence contract: grading is deterministic over the token stream, so
/// a cached outcome is identical to a fresh grade in verdict, tier, failure
/// class, feedback text, and functional verdict. Two fields may reflect the
/// cached *representative* rather than the specific duplicate: `timings`
/// (wall-clock of the original grade) and position-bearing `diagnostic`
/// strings (a whitespace variant of a parse-failing source can place the
/// error on a different line). Callers that need exact diagnostics for
/// unparseable sources get them anyway: lex failures fingerprint by raw
/// bytes, so only byte-identical garbage shares an entry.
///
/// Thread-safe; bounded by a ClockCache, so a batch's hot duplicates
/// survive overflow.
class ResultCache {
 public:
  explicit ResultCache(size_t max_entries = 4096) : entries_(max_entries) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// True (and fills *out) when (assignment_id, fingerprint) is cached.
  bool Lookup(const std::string& assignment_id, uint64_t fingerprint,
              service::GradingOutcome* out);

  /// Stores one outcome, evicting a cold entry when full. Overwrites any
  /// existing entry for the key (last grade wins; they are equivalent).
  void Insert(const std::string& assignment_id, uint64_t fingerprint,
              service::GradingOutcome outcome);

  CacheStats stats() const;
  size_t size() const;

 private:
  static std::string MakeKey(const std::string& assignment_id,
                             uint64_t fingerprint);

  mutable std::mutex mu_;
  ClockCache<service::GradingOutcome> entries_;
  CacheStats stats_;
};

}  // namespace jfeed::sched

#endif  // JFEED_SCHED_RESULT_CACHE_H_
