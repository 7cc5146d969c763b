#include "service/method_cache.h"

#include <cstdio>
#include <utility>

#include "javalang/parser.h"
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
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    MissesTotal()->Increment();
    return std::shared_ptr<MethodEntry>();
  }
  it->second.referenced = true;
  ++stats_.hits;
  HitsTotal()->Increment();
  return it->second.entry;
}

std::shared_ptr<MethodEntry> MethodCache::Insert(
    const std::string& assignment_id, uint64_t fingerprint,
    std::shared_ptr<MethodEntry> entry) {
  std::string key = MakeKey(assignment_id, fingerprint);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Insert race: keep the published entry so both workers converge on one
    // cell store; the loser's entry dies with its shared_ptr.
    return it->second.entry;
  }
  if (entries_.size() >= max_entries_) EvictOneLocked();
  entries_[key].entry = entry;
  clock_.push_back(std::move(key));
  ++stats_.insertions;
  InsertionsTotal()->Increment();
  return entry;
}

Result<std::shared_ptr<MethodEntry>> MethodCache::BuildEntry(
    const java::Method& method) {
  if (method.norm_source.empty()) {
    return Status::InvalidArgument(
        "method has no normalized source (hand-built AST?)");
  }
  auto entry = std::make_shared<MethodEntry>();
  // The re-parsed AST nodes the entry pins must allocate from the entry's
  // own arena, not whatever recycled worker arena is currently in scope.
  java::AstArenaScope scope(&entry->memory.arena);
  JFEED_ASSIGN_OR_RETURN(entry->unit, java::Parse(method.norm_source));
  if (entry->unit.methods.size() != 1) {
    return Status::Internal("normalized method source re-parsed to " +
                            std::to_string(entry->unit.methods.size()) +
                            " methods");
  }
  JFEED_ASSIGN_OR_RETURN(
      pdg::Epdg graph,
      pdg::BuildEpdg(entry->unit.methods[0], &entry->memory));
  entry->graph = std::make_unique<pdg::Epdg>(std::move(graph));
  // Freeze at publish time: HasEdge() on a shared entry must be a pure
  // read, never a first-call CSR build racing across workers.
  entry->graph->FreezeAdjacency();
  return entry;
}

void MethodCache::EvictOneLocked() {
  for (size_t step = 0; step < 2 * clock_.size() + 1; ++step) {
    if (hand_ >= clock_.size()) hand_ = 0;
    auto it = entries_.find(clock_[hand_]);
    if (it != entries_.end() && it->second.referenced) {
      it->second.referenced = false;  // Second chance.
      ++hand_;
      continue;
    }
    if (it != entries_.end()) entries_.erase(it);
    clock_[hand_] = std::move(clock_.back());
    clock_.pop_back();
    ++stats_.evictions;
    EvictionsTotal()->Increment();
    return;
  }
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
