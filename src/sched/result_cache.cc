#include "sched/result_cache.h"

#include <utility>

#include "javalang/fingerprint.h"
#include "javalang/lexer.h"
#include "obs/metrics.h"

namespace jfeed::sched {

namespace {

// Cache traffic counters, mirrored from the per-instance CacheStats into
// the process-wide registry so a scrape sees aggregate hit/miss/eviction
// rates across every scheduler (DESIGN.md §6 metric-name contract).
obs::Counter* HitsTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_cache_hits_total", "Result-cache lookups served from cache");
  return counter;
}
obs::Counter* MissesTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_cache_misses_total", "Result-cache lookups that missed");
  return counter;
}
obs::Counter* InsertionsTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_cache_insertions_total", "Result-cache entries inserted");
  return counter;
}
obs::Counter* EvictionsTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_cache_evictions_total", "Result-cache entries evicted");
  return counter;
}

}  // namespace

uint64_t TokenFingerprint(const std::string& source) {
  auto tokens = java::Lex(source);
  if (!tokens.ok()) {
    // Unlexable source: hash raw bytes under a distinct domain tag so it can
    // never collide with a token-stream hash of some other source.
    return java::FingerprintRawBytes(source);
  }
  return java::FingerprintTokenStream(*tokens);
}

std::string ResultCache::MakeKey(const std::string& assignment_id,
                                 uint64_t fingerprint) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string key;
  key.reserve(assignment_id.size() + 17);
  key += assignment_id;
  key += '/';
  for (int shift = 60; shift >= 0; shift -= 4) {
    key += kHex[(fingerprint >> shift) & 0xF];
  }
  return key;
}

bool ResultCache::Lookup(const std::string& assignment_id,
                         uint64_t fingerprint, service::GradingOutcome* out) {
  std::string key = MakeKey(assignment_id, fingerprint);
  std::lock_guard<std::mutex> lock(mu_);
  const service::GradingOutcome* cached = entries_.Find(key);
  if (cached == nullptr) {
    ++stats_.misses;
    MissesTotal()->Increment();
    return false;
  }
  ++stats_.hits;
  HitsTotal()->Increment();
  *out = *cached;
  return true;
}

void ResultCache::Insert(const std::string& assignment_id,
                         uint64_t fingerprint,
                         service::GradingOutcome outcome) {
  std::string key = MakeKey(assignment_id, fingerprint);
  std::lock_guard<std::mutex> lock(mu_);
  if (service::GradingOutcome* existing = entries_.Peek(key)) {
    *existing = std::move(outcome);
    return;
  }
  bool evicted = false;
  entries_.Add(std::move(key), &evicted) = std::move(outcome);
  if (evicted) {
    ++stats_.evictions;
    EvictionsTotal()->Increment();
  }
  ++stats_.insertions;
  InsertionsTotal()->Increment();
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace jfeed::sched
