#ifndef JFEED_SUPPORT_CLOCK_CACHE_H_
#define JFEED_SUPPORT_CLOCK_CACHE_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace jfeed {

/// A bounded string-keyed map that evicts by CLOCK second chance instead of
/// dropping everything: a hit sets the entry's reference bit, and when the
/// map is full the hand sweeps the key ring, clearing set bits and
/// reclaiming the first entry whose bit was already clear, so the hot
/// working set of a long batch survives overflow. The sweep is bounded by
/// two turns of the ring, after which the entry under the hand goes.
///
/// The map holds no lock and keeps no counters. RegexCache keeps one per
/// thread; ResultCache and MethodCache guard theirs with their own mutex
/// and count their own traffic.
template <typename V>
class ClockCache {
 public:
  explicit ClockCache(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The value under `key`, or nullptr. A hit sets the reference bit.
  V* Find(const std::string& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    it->second.referenced = true;
    return &it->second.value;
  }

  /// The value under `key` without touching its reference bit, or nullptr.
  V* Peek(const std::string& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.value;
  }

  /// Adds `key`, which must be absent, with a default-constructed value and
  /// a clear reference bit. A full map first evicts one entry and reports
  /// it through `*evicted`.
  V& Add(std::string key, bool* evicted) {
    *evicted = map_.size() >= capacity_ && EvictOne();
    V& value = map_[key].value;
    ring_.push_back(std::move(key));
    return value;
  }

  size_t size() const { return map_.size(); }

 private:
  struct Slot {
    V value;
    bool referenced = false;  ///< Second-chance bit, set on every hit.
  };

  bool EvictOne() {
    for (size_t step = 0; step < 2 * ring_.size() + 1; ++step) {
      if (hand_ >= ring_.size()) hand_ = 0;
      auto it = map_.find(ring_[hand_]);
      if (it != map_.end() && it->second.referenced) {
        it->second.referenced = false;  // Second chance.
        ++hand_;
        continue;
      }
      if (it != map_.end()) map_.erase(it);
      ring_[hand_] = std::move(ring_.back());
      ring_.pop_back();
      return true;
    }
    return false;
  }

  size_t capacity_;
  std::unordered_map<std::string, Slot> map_;
  std::vector<std::string> ring_;  ///< Keys in eviction-scan order.
  size_t hand_ = 0;                ///< Clock hand into `ring_`.
};

}  // namespace jfeed

#endif  // JFEED_SUPPORT_CLOCK_CACHE_H_
