#ifndef JFEED_SUPPORT_REGEX_CACHE_H_
#define JFEED_SUPPORT_REGEX_CACHE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "support/clock_cache.h"
#include "support/lite_regex.h"

namespace jfeed {

/// Caches compiled LiteRegex programs keyed by their pattern string.
/// Pattern matching instantiates the same regex template once per
/// candidate variable binding; submissions reuse a small vocabulary of
/// variable names, so the hit rate is high and compilation cost disappears
/// from the hot path. LiteRegex is the only engine: a pattern outside its
/// subset is invalid and never matches, so Search() stays allocation-free
/// at steady state — template checks are the innermost operation of
/// Algorithm 1.
///
/// A single instance is not thread-safe; concurrent matching uses one cache
/// per thread via ThreadLocal(). When the cache is full it evicts one entry
/// by CLOCK second chance (ClockCache), so the hot working set of a long
/// batch survives overflow.
class RegexCache {
 public:
  explicit RegexCache(size_t max_entries = 65536) : entries_(max_entries) {}

  RegexCache(const RegexCache&) = delete;
  RegexCache& operator=(const RegexCache&) = delete;

  /// True when some substring of `text` matches `pattern` (ECMAScript
  /// regex_search semantics). Invalid patterns never match.
  bool Search(const std::string& pattern, std::string_view text) {
    const Entry& entry = Lookup(pattern);
    return entry.valid && entry.program.Search(text, &scratch_);
  }

  /// True when `pattern` compiles as LiteRegex (negative results are cached
  /// too).
  bool Valid(const std::string& pattern) { return Lookup(pattern).valid; }

  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  /// Per-thread cache instance. Each scheduler worker (and the main thread)
  /// gets its own cache, so matching runs lock-free in parallel; the
  /// instance lives until its thread exits.
  static RegexCache& ThreadLocal() {
    thread_local RegexCache cache;
    return cache;
  }

 private:
  struct Entry {
    LiteRegex program;
    bool valid = false;
  };

  Entry& Lookup(const std::string& pattern) {
    if (Entry* hit = entries_.Find(pattern)) {
      ++hits_;
      return *hit;
    }
    ++misses_;
    bool evicted = false;
    Entry& entry = entries_.Add(pattern, &evicted);
    if (evicted) ++evictions_;
    entry.valid = LiteRegex::Compile(pattern, &entry.program);
    return entry;
  }

  ClockCache<Entry> entries_;
  LiteRegexScratch scratch_;  ///< Reused by every Search() call.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace jfeed

#endif  // JFEED_SUPPORT_REGEX_CACHE_H_
