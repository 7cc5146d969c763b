#ifndef JFEED_SCHED_SHARDED_SCHEDULER_H_
#define JFEED_SCHED_SHARDED_SCHEDULER_H_

// The grading engine: one worker pool, one shard per assignment, per-shard
// admission control. jfeedd runs one shard per served assignment;
// single-assignment batch grading (GradeBatchParallel below, behind
// `grade --batch`) runs one shard whose quota is the batch size.
//
// All assignments are loaded at construction, every worker thread can grade
// any of them (pipelines are created lazily per (worker, assignment)), and
// the *only* per-assignment resource is an admission quota — a bound on how
// many of one assignment's submissions may be in the system (queued or
// grading) at once.
//
// That quota is the isolation mechanism for deadline-day spikes: when
// assignment A's students resubmit in a burst, A's submissions beyond its
// quota are shed immediately with kUnavailable (the daemon turns that into
// 429 + Retry-After) while assignments B..L keep grading with bounded queue
// delay — A can occupy at most `shard_queue_capacity` slots of the shared
// FIFO, so no other tenant waits behind more than one quota's worth of A.
//
// Per-assignment observability (the `assignment` label, DESIGN.md §6):
//   jfeed_sched_jobs_total{assignment=...}        graded per shard
//   jfeed_sched_shard_queue_depth{assignment=...} in-system per shard
//   jfeed_shed_total{assignment=...}              admission sheds per shard
//   jfeed_grade_duration_us{assignment=...}       admission->result latency
// The unlabeled scheduler aggregates (jfeed_sched_jobs_total, queue depth,
// busy/idle) keep working so /statusz and existing dashboards are unchanged.
//
// Destruction drains: every admitted submission is answered before workers
// join.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kb/assignments.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "sched/bounded_queue.h"
#include "sched/result_cache.h"
#include "service/pipeline.h"
#include "support/status.h"

namespace jfeed::sched {

/// Tuning for one ShardedScheduler.
struct ShardedSchedulerOptions {
  /// Worker threads shared by every shard. Clamped to >= 1.
  int jobs = 4;
  /// Per-assignment admission quota: submissions of one assignment that may
  /// be in the system (queued or grading) before further ones are shed.
  size_t shard_queue_capacity = 64;
  /// Content-addressed result cache shared across shards (keyed by
  /// (assignment, token fingerprint), so tenants never cross-hit).
  bool use_result_cache = true;
  /// Method-level incremental grading (DESIGN.md §3d), shared across
  /// shards; entries are keyed by assignment id, so two tenants whose
  /// submissions share a method body still never cross-hit.
  bool use_method_cache = false;
};

/// Per-batch accounting returned by GradeMixedBatch.
struct BatchStats {
  size_t submissions = 0;
  size_t graded = 0;       ///< Submissions that actually ran the pipeline.
  size_t cache_hits = 0;   ///< Served from the cross-batch result cache.
  size_t dedup_hits = 0;   ///< Coalesced onto an in-flight duplicate.

  /// Fraction of submissions that did not pay for a grade.
  double HitRate() const {
    return submissions == 0
               ? 0.0
               : static_cast<double>(cache_hits + dedup_hits) / submissions;
  }
};

/// One input line of a mixed-assignment batch.
struct MixedItem {
  std::string assignment;  ///< Knowledge-base assignment id.
  std::string id;          ///< Caller-chosen submission id; may be empty.
  std::string source;
  /// Distributed-trace context of the request this line arrived on (the
  /// daemon's adopted-or-minted traceparent). The grading worker's
  /// sched.job span parents under it, so worker pipeline spans and the
  /// wide event join the broker-side trace. Default (invalid) = untraced.
  obs::TraceContext trace;
};

/// One result line of a mixed-assignment batch. `status` is OK for graded /
/// cache-served lines; kUnavailable for an admission shed (the 429 path);
/// kNotFound for an unknown assignment id (the per-line 404 path).
struct MixedOutcome {
  Status status;
  service::GradingOutcome outcome;  ///< Meaningful only when status.ok().
  /// Cache disposition: "miss" (graded), "hit", "dedup", "off",
  /// "partial_hit" (graded, but the method cache served some methods), or
  /// "" for non-OK statuses.
  const char* disposition = "";
};

class ShardedScheduler {
 public:
  /// `assignments` become the shards, in order; the vector must be
  /// non-empty and the pointers must outlive the scheduler (they point into
  /// the process-lifetime KnowledgeBase).
  ShardedScheduler(std::vector<const kb::Assignment*> assignments,
                   service::PipelineOptions pipeline_options =
                       service::PipelineOptions(),
                   ShardedSchedulerOptions options =
                       ShardedSchedulerOptions());
  ~ShardedScheduler();

  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  /// Streaming admission with per-shard quota. kNotFound for an unknown
  /// assignment, kUnavailable when the shard quota is exhausted (shed; the
  /// per-assignment jfeed_shed_total counter increments) or after shutdown
  /// began. On success *ticket identifies the submission for Wait().
  /// `trace` (optional) is the request's distributed-trace context.
  Status Submit(const std::string& assignment_id, const std::string& source,
                const std::string& id, uint64_t* ticket,
                const obs::TraceContext& trace = obs::TraceContext());

  /// Blocks until the outcome for `ticket` is ready. One wait per ticket.
  service::GradingOutcome Wait(uint64_t ticket);

  /// Grades one mixed-assignment batch: element i corresponds to item i.
  /// Admission is non-blocking — a line whose shard quota is exhausted is
  /// shed (kUnavailable) instead of stalling the whole batch behind one
  /// tenant's spike. Identical (assignment, token stream) lines coalesce
  /// onto one pipeline run; the shared cache serves repeats across batches.
  std::vector<MixedOutcome> GradeMixedBatch(
      const std::vector<MixedItem>& items, BatchStats* stats = nullptr);

  int jobs() const { return jobs_; }
  size_t shard_count() const { return shards_.size(); }
  const ResultCache* cache() const { return cache_.get(); }
  size_t shard_queue_capacity() const { return options_.shard_queue_capacity; }

  /// Shard ids in construction order (= /statusz shard order).
  std::vector<std::string> assignment_ids() const;

  /// In-system submissions for one assignment (0 for unknown ids).
  size_t ShardDepth(const std::string& assignment_id) const;

  /// True when every shard's quota is exhausted — the /healthz "saturated"
  /// condition for a multi-tenant daemon.
  bool Saturated() const;

  /// Jobs waiting in the shared queue / its total capacity (the aggregate
  /// backpressure view; per-shard depth is the admission-control view).
  size_t queue_depth() const { return queue_.size(); }
  size_t queue_capacity() const { return queue_.capacity(); }

 private:
  struct Shard {
    const kb::Assignment* assignment = nullptr;
    std::shared_ptr<service::ReferenceOracle> oracle;
    std::atomic<size_t> depth{0};  ///< Queued + grading, quota-bounded.
    // The shard's `assignment`-labelled instruments, resolved at
    // construction.
    obs::Counter* jobs_total = nullptr;
    obs::Gauge* depth_gauge = nullptr;
    obs::Counter* shed_total = nullptr;
    obs::Histogram* grade_duration_us = nullptr;
  };

  struct Job {
    uint64_t ticket = 0;
    size_t shard = 0;
    std::string id;
    std::string source;
    service::CacheDisposition cache = service::CacheDisposition::kOff;
    int64_t admitted_us = 0;  ///< Steady-clock admission time for latency.
    obs::TraceContext trace;  ///< Request trace the job span adopts.
  };

  void WorkerLoop();
  service::GradingOutcome TakeResult(uint64_t ticket);
  /// Shard index for `assignment_id`; false when unknown.
  bool FindShard(const std::string& assignment_id, size_t* index) const;
  /// Quota check + push. kUnavailable on shed or shutdown.
  Status Admit(size_t shard_index, const std::string& source,
               const std::string& id, service::CacheDisposition cache,
               const obs::TraceContext& trace, uint64_t* ticket);

  service::PipelineOptions pipeline_options_;
  ShardedSchedulerOptions options_;
  int jobs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::string, size_t> shard_by_id_;
  std::shared_ptr<ResultCache> cache_;  ///< Null when caching is off.

  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;

  std::mutex results_mu_;
  std::condition_variable results_cv_;
  std::unordered_map<uint64_t, service::GradingOutcome> results_;
  std::atomic<uint64_t> next_ticket_{1};
};

}  // namespace jfeed::sched

namespace jfeed::service {

/// Service-level parallel counterpart of GradingPipeline::GradeBatch: same
/// contract (element i corresponds to source i; every submission yields
/// exactly one outcome), executed by a one-shard sched::ShardedScheduler
/// with content-addressed dedup. The shard's admission quota is the batch
/// size, so no submission is shed; `scheduler_options.shard_queue_capacity`
/// is not consulted. `ids` (parallel to `sources`, or empty) name the
/// flight-recorder events; `stats`, when non-null, receives the batch's
/// dedup and cache accounting.
std::vector<GradingOutcome> GradeBatchParallel(
    const kb::Assignment& assignment, std::vector<std::string> sources,
    const PipelineOptions& pipeline_options = PipelineOptions(),
    sched::ShardedSchedulerOptions scheduler_options =
        sched::ShardedSchedulerOptions(),
    const std::vector<std::string>& ids = {},
    sched::BatchStats* stats = nullptr);

}  // namespace jfeed::service

#endif  // JFEED_SCHED_SHARDED_SCHEDULER_H_
