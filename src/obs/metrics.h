#ifndef JFEED_OBS_METRICS_H_
#define JFEED_OBS_METRICS_H_

// Lock-cheap metrics registry for the grading service.
//
// Three instrument kinds, Prometheus semantics:
//   Counter   — monotonically increasing int64 (events, bytes, steps).
//   Gauge     — instantaneous int64 (queue depth, live workers).
//   Histogram — int64 samples bucketed into fixed log2-scale buckets
//               (durations in µs, step counts, byte sizes).
//
// Counters and histograms write to `thread_local` shards: an increment is
// one relaxed atomic add on a cell no other thread writes, so instrumented
// hot paths never contend on a registry lock. Shards are aggregated on
// scrape (`Registry::Render()` / `Value()`), and a dying thread folds its
// cells into the owning instrument's retired sum, so counts survive worker
// churn in the scheduler.
//
// The registry is runtime-gated: until a sink flips `set_enabled(true)`
// (the `--metrics-out` flag, a test, a scrape loop), every Increment /
// Record is a single relaxed load and an early return.
//
// Metric-name stability contract: names listed in DESIGN.md §6 are part of
// the service's monitoring interface — renaming one is a breaking change
// and must be called out in CHANGES.md.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace jfeed::obs {

/// Label set of one instrument instance, e.g. {{"stage", "parse"}}. Baked
/// into the instrument at Get* time; (name, labels) identifies the cell.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Last sample that landed in a histogram bucket, tagged with the trace
/// that produced it (the OpenMetrics "exemplar" idea): a p99 bucket in
/// jfeed_grade_duration_us links to a concrete trace id to pull from
/// /tracez. Kept out of Render() — the Prometheus 0.0.4 text format has no
/// exemplar syntax and MergeWorkerMetrics must keep parsing expositions —
/// and surfaced through the /sloz JSON endpoint instead.
struct HistogramExemplar {
  int64_t value = 0;
  std::string trace_id;
};

/// Monotonically increasing counter. Increment() is wait-free against other
/// instrumented threads: each thread adds to its own shard cell.
class Counter {
 public:
  /// No-op while the registry is disabled.
  void Increment(int64_t delta = 1);

  /// Retired sum plus every live thread cell — the scrape-time aggregate.
  int64_t Value() const;

 private:
  friend class Registry;
  Counter() = default;

  std::atomic<int64_t>& Cell();
  void Retire(const std::atomic<int64_t>* cell);
  void ResetLocked();

  std::atomic<int64_t> retired_{0};
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<std::atomic<int64_t>>> cells_;
};

/// Instantaneous value. Set/Add race benignly (last writer wins) on a
/// single shared atomic — gauges are read far more often than written, and
/// "latest observed" is the semantics a queue-depth gauge wants.
class Gauge {
 public:
  void Set(int64_t value);
  void Add(int64_t delta);
  int64_t Value() const;

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// Fixed log2-bucket histogram of non-negative int64 samples. Bucket i
/// counts samples <= 2^i (bucket 0: <= 1); the last bucket is +Inf. 32
/// buckets cover 1..2^30 before saturating — microsecond durations up to
/// ~18 minutes, byte sizes up to 1 GiB — with zero configuration, which is
/// what keeps the shards fixed-size and the Record path branch-free.
class Histogram {
 public:
  static constexpr int kBucketCount = 32;

  /// Index of the bucket counting `value` (log2 scale, clamped).
  static int BucketIndex(int64_t value);
  /// Inclusive upper bound of bucket `index`; INT64_MAX for the last.
  static int64_t BucketBound(int index);

  /// No-op while the registry is disabled.
  void Record(int64_t value);

  /// Record(value), additionally remembering {value, trace_id} as the
  /// exemplar of the bucket the sample landed in (last writer wins; an
  /// empty trace_id degrades to a plain Record). One mutex-guarded write —
  /// only call on paths that already cost a grade, not per-token loops.
  void RecordWithExemplar(int64_t value, const std::string& trace_id);

  int64_t Count() const;
  int64_t Sum() const;
  /// Cumulative count of samples <= BucketBound(index), Prometheus `le`
  /// semantics.
  int64_t CumulativeCount(int index) const;

  /// (bucket index, exemplar) for every bucket holding one, ascending by
  /// index. Cleared by Registry::ResetForTest().
  std::vector<std::pair<int, HistogramExemplar>> Exemplars() const;

 private:
  friend class Registry;
  Histogram() = default;

  struct Shard {
    std::array<std::atomic<int64_t>, kBucketCount> buckets{};
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
  };

  Shard& Cell();
  void Retire(const Shard* shard);
  void ResetLocked();

  Shard retired_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Shard>> shards_;

  mutable std::mutex exemplar_mu_;
  std::array<HistogramExemplar, kBucketCount> exemplars_{};
};

/// Process-wide instrument registry. Get* calls are idempotent: the same
/// (name, labels) pair always returns the same instrument, so call sites
/// cache the pointer in a function-local static and pay the registry lock
/// once per process. Instruments are never deleted — ResetForTest() zeroes
/// values but keeps every pointer valid.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const Labels& labels = {});

  /// Prometheus text exposition: one # HELP / # TYPE block per family,
  /// families and label sets in lexicographic order (deterministic output
  /// for tests and diffable dumps).
  std::string Render() const;

  /// Runtime master switch. Disabled (the default) every instrument write
  /// is a relaxed load + early return; reads (Value, Render) always work.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zeroes every instrument (counters, gauges, histogram shards) without
  /// invalidating instrument pointers. Test isolation only.
  void ResetForTest();

 private:
  Registry() = default;

  enum class Kind { kCounter, kGauge, kHistogram };
  struct Family {
    std::string name;
    std::string help;
    Kind kind;
    /// Parallel vectors: one instrument per registered label set.
    std::vector<Labels> label_sets;
    std::vector<std::unique_ptr<Counter>> counters;
    std::vector<std::unique_ptr<Gauge>> gauges;
    std::vector<std::unique_ptr<Histogram>> histograms;
  };

  Family* GetFamilyLocked(const std::string& name, const std::string& help,
                          Kind kind);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace jfeed::obs

#endif  // JFEED_OBS_METRICS_H_
