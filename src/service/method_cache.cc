#include "service/method_cache.h"

#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "support/fault.h"

namespace jfeed::service {

namespace {

// Method-cache traffic counters, mirrored into the process-wide registry
// (DESIGN.md §6 metric-name contract). Distinct from the jfeed_cache_*
// family: one submission performs one result-cache lookup but N method
// lookups, so mixing the two would make both hit rates meaningless.
obs::Counter* HitsTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_method_cache_hits_total",
      "Method-cache lookups served from a pinned entry");
  return counter;
}
obs::Counter* MissesTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_method_cache_misses_total", "Method-cache lookups that missed");
  return counter;
}
obs::Counter* InsertionsTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_method_cache_insertions_total", "Method-cache entries inserted");
  return counter;
}
obs::Counter* EvictionsTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_method_cache_evictions_total", "Method-cache entries evicted");
  return counter;
}
obs::Counter* FallbacksTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_method_cache_fallbacks_total",
      "Method-cache lookups that errored and forced a full regrade");
  return counter;
}

}  // namespace

std::string MethodCache::MakeKey(const std::string& assignment_id,
                                 uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return assignment_id + "/" + buf;
}

Result<std::shared_ptr<MethodEntry>> MethodCache::Lookup(
    const std::string& assignment_id, uint64_t fingerprint) {
  // Open-coded JFEED_FAULT_POINT(points::kMethodCacheLookup): same crossing
  // semantics, but an injected failure is counted as a fallback before it
  // propagates, so the chaos suite can assert metrics coherence.
  if (fault::Injector::Get().enabled()) {
    Status status =
        fault::Injector::Get().MaybeFail(fault::points::kMethodCacheLookup);
    if (!status.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.fallbacks;
      }
      FallbacksTotal()->Increment();
      return status;
    }
  }
  std::string key = MakeKey(assignment_id, fingerprint);
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<MethodEntry>* cached = entries_.Find(key);
  if (cached == nullptr) {
    ++stats_.misses;
    MissesTotal()->Increment();
    return std::shared_ptr<MethodEntry>();
  }
  ++stats_.hits;
  HitsTotal()->Increment();
  return *cached;
}

std::shared_ptr<MethodEntry> MethodCache::Insert(
    const std::string& assignment_id, uint64_t fingerprint,
    std::shared_ptr<MethodEntry> entry) {
  std::string key = MakeKey(assignment_id, fingerprint);
  std::lock_guard<std::mutex> lock(mu_);
  if (const std::shared_ptr<MethodEntry>* published = entries_.Peek(key)) {
    // Insert race: keep the published entry so both workers converge on one
    // cell store; the loser's entry dies with its shared_ptr.
    return *published;
  }
  bool evicted = false;
  entries_.Add(std::move(key), &evicted) = entry;
  if (evicted) {
    ++stats_.evictions;
    EvictionsTotal()->Increment();
  }
  ++stats_.insertions;
  InsertionsTotal()->Increment();
  return entry;
}

Result<std::shared_ptr<MethodEntry>> MethodCache::BuildEntry(
    const java::Method& method) {
  auto entry = std::make_shared<MethodEntry>();
  JFEED_ASSIGN_OR_RETURN(pdg::Epdg graph,
                         pdg::BuildEpdg(method, &entry->memory));
  entry->graph = std::make_unique<pdg::Epdg>(std::move(graph));
  // Freeze at publish time: HasEdge() on a shared entry must be a pure
  // read, never a first-call CSR build racing across workers.
  entry->graph->FreezeAdjacency();
  return entry;
}

MethodCacheStats MethodCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t MethodCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace jfeed::service
