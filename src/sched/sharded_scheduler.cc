#include "sched/sharded_scheduler.h"

#include <chrono>
#include <utility>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "support/fault.h"

namespace jfeed::sched {

namespace {

// Aggregate scheduler signals. Queue depth is a gauge (instantaneous
// backlog); jobs/busy/idle are counters so utilization can be derived from
// two scrapes as busy / (busy + idle) without the scheduler keeping rates
// itself.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge = obs::Registry::Global().GetGauge(
      "jfeed_sched_queue_depth", "Jobs currently waiting in the batch queue");
  return gauge;
}
obs::Gauge* WorkersGauge() {
  static obs::Gauge* gauge = obs::Registry::Global().GetGauge(
      "jfeed_sched_workers", "Worker threads currently alive");
  return gauge;
}
obs::Counter* JobsTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_sched_jobs_total", "Jobs graded by scheduler workers");
  return counter;
}
obs::Counter* BusyUsTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_sched_busy_us_total",
      "Cumulative worker microseconds spent grading jobs");
  return counter;
}
obs::Counter* IdleUsTotal() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "jfeed_sched_idle_us_total",
      "Cumulative worker microseconds spent waiting for jobs");
  return counter;
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardedScheduler::ShardedScheduler(
    std::vector<const kb::Assignment*> assignments,
    service::PipelineOptions pipeline_options, ShardedSchedulerOptions options)
    : pipeline_options_(std::move(pipeline_options)),
      options_(options),
      jobs_(options.jobs < 1 ? 1 : options.jobs),
      // The shared FIFO never rejects an admitted job: total in-system work
      // is bounded by the shard quotas, so capacity = shards × quota makes
      // the quota the only admission gate.
      queue_(assignments.empty()
                 ? options.shard_queue_capacity
                 : assignments.size() * options.shard_queue_capacity) {
  if (options_.shard_queue_capacity == 0) options_.shard_queue_capacity = 1;
  shards_.reserve(assignments.size());
  for (const kb::Assignment* assignment : assignments) {
    auto shard = std::make_unique<Shard>();
    shard->assignment = assignment;
    shard->oracle = std::make_shared<service::ReferenceOracle>();
    // Every per-assignment instrument is registered up front: a tenant that
    // never sheds still exposes jfeed_shed_total{assignment=...} 0, so
    // scrapers and the CI metric-name greps see the full label space from
    // the first scrape, not only after the first event.
    obs::Registry& registry = obs::Registry::Global();
    const obs::Labels labels = {{"assignment", assignment->id}};
    shard->jobs_total = registry.GetCounter(
        "jfeed_sched_jobs_total", "Jobs graded by scheduler workers", labels);
    shard->depth_gauge = registry.GetGauge(
        "jfeed_sched_shard_queue_depth",
        "Submissions in the system (queued or grading) per assignment shard",
        labels);
    shard->shed_total = registry.GetCounter(
        "jfeed_shed_total",
        "Submissions shed by per-assignment admission control", labels);
    shard->grade_duration_us = registry.GetHistogram(
        "jfeed_grade_duration_us",
        "Admission-to-result grade latency per assignment, microseconds",
        labels);
    shard_by_id_.emplace(assignment->id, shards_.size());
    shards_.push_back(std::move(shard));
  }
  if (options_.use_result_cache) cache_ = std::make_shared<ResultCache>();
  if (options_.use_method_cache &&
      pipeline_options_.method_cache == nullptr) {
    pipeline_options_.method_cache = std::make_shared<service::MethodCache>();
  }
  workers_.reserve(static_cast<size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ShardedScheduler::~ShardedScheduler() {
  queue_.Close();
  for (auto& worker : workers_) worker.join();
}

void ShardedScheduler::WorkerLoop() {
  // One lazily-built pipeline per assignment this worker has graded: the
  // pipeline (and everything thread-local it reaches, plus its recycled
  // per-submission arena pool) belongs to this thread, so steady-state
  // grading recycles arena chunks instead of calling the allocator; the
  // per-shard oracle is the deliberate cross-worker memo.
  std::unordered_map<size_t, std::unique_ptr<service::GradingPipeline>>
      pipelines;
  const bool metered = obs::Registry::Global().enabled();
  if (metered) WorkersGauge()->Add(1);
  auto mark = std::chrono::steady_clock::now();
  auto lap_us = [&mark] {
    auto now = std::chrono::steady_clock::now();
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(now - mark)
                  .count();
    mark = now;
    return us;
  };
  while (auto job = queue_.Pop()) {
    if (metered) {
      IdleUsTotal()->Increment(lap_us());
      QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
    }
    Shard& shard = *shards_[job->shard];
    auto it = pipelines.find(job->shard);
    if (it == pipelines.end()) {
      it = pipelines
               .emplace(job->shard,
                        std::make_unique<service::GradingPipeline>(
                            *shard.assignment, pipeline_options_,
                            shard.oracle))
               .first;
    }
    // The job span adopts the request's traceparent context, so the
    // pipeline's `grade` span tree (which nests under it implicitly and
    // stamps outcome.trace_id) lands on the same distributed trace as the
    // broker's routing attempts.
    obs::Span job_span("sched.job", job->trace);
    service::GradingOutcome outcome = it->second->Grade(job->source);
    job_span.End();
    const service::CacheDisposition disposition =
        service::ResolveCacheDisposition(job->cache, outcome);
    service::CountCacheDisposition(disposition);
    if (obs::EventLog::Global().enabled()) {
      obs::EventLog::Global().Append(service::BuildWideEvent(
          job->id, shard.assignment->id, disposition, outcome));
    }
    const int64_t latency_us = NowUs() - job->admitted_us;
    obs::SloTracker::Global().RecordGrade(shard.assignment->id, latency_us,
                                          obs::SloTracker::NowS());
    if (metered) {
      BusyUsTotal()->Increment(lap_us());
      JobsTotal()->Increment();
      shard.jobs_total->Increment();
      // The exemplar ties this latency bucket to the trace that produced
      // it — how a p99 bucket on a dashboard names a concrete trace.
      shard.grade_duration_us->RecordWithExemplar(latency_us,
                                                  outcome.trace_id);
    }
    // The quota slot stays held through grading ("in-system" covers queued
    // and grading both, so a shard can never exceed its quota) and frees
    // immediately BEFORE the result publishes: anyone who has observed the
    // outcome — Wait(), a drained batch — also observes the freed slot.
    size_t depth = shard.depth.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if (metered) shard.depth_gauge->Set(static_cast<int64_t>(depth));
    {
      std::lock_guard<std::mutex> lock(results_mu_);
      results_[job->ticket] = std::move(outcome);
    }
    results_cv_.notify_all();
  }
  if (metered) WorkersGauge()->Add(-1);
}

bool ShardedScheduler::FindShard(const std::string& assignment_id,
                                 size_t* index) const {
  auto it = shard_by_id_.find(assignment_id);
  if (it == shard_by_id_.end()) return false;
  *index = it->second;
  return true;
}

Status ShardedScheduler::Admit(size_t shard_index, const std::string& source,
                               const std::string& id,
                               service::CacheDisposition cache,
                               const obs::TraceContext& trace,
                               uint64_t* ticket) {
  Shard& shard = *shards_[shard_index];
  const bool metered = obs::Registry::Global().enabled();
  // Reserve a quota slot first; the shared queue cannot overflow while
  // every shard honours its quota.
  size_t depth = shard.depth.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (depth > options_.shard_queue_capacity) {
    shard.depth.fetch_sub(1, std::memory_order_acq_rel);
    if (metered) shard.shed_total->Increment();
    // A shed is an availability-bad SLO event: it burns the tenant's error
    // budget even though no grading work ran.
    obs::SloTracker::Global().RecordShed(shard.assignment->id,
                                         obs::SloTracker::NowS());
    return Status::Unavailable(
        "assignment '" + shard.assignment->id + "' is at its admission "
        "quota (" + std::to_string(options_.shard_queue_capacity) +
        " in flight); retry shortly");
  }
  uint64_t t = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.TryPush(Job{t, shard_index, id, source, cache, NowUs(),
                          trace})) {
    shard.depth.fetch_sub(1, std::memory_order_acq_rel);
    return Status::Unavailable("scheduler is shutting down");
  }
  if (metered) {
    QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
    shard.depth_gauge->Set(static_cast<int64_t>(depth));
  }
  *ticket = t;
  return Status::OK();
}

Status ShardedScheduler::Submit(const std::string& assignment_id,
                                const std::string& source,
                                const std::string& id, uint64_t* ticket,
                                const obs::TraceContext& trace) {
  size_t shard_index;
  if (!FindShard(assignment_id, &shard_index)) {
    return Status::NotFound("unknown assignment '" + assignment_id + "'");
  }
  return Admit(shard_index, source, id, service::CacheDisposition::kOff,
               trace, ticket);
}

service::GradingOutcome ShardedScheduler::Wait(uint64_t ticket) {
  return TakeResult(ticket);
}

service::GradingOutcome ShardedScheduler::TakeResult(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(results_mu_);
  results_cv_.wait(lock,
                   [this, ticket] { return results_.count(ticket) > 0; });
  auto node = results_.extract(ticket);
  return std::move(node.mapped());
}

std::vector<MixedOutcome> ShardedScheduler::GradeMixedBatch(
    const std::vector<MixedItem>& items, BatchStats* stats) {
  BatchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = BatchStats();
  stats->submissions = items.size();
  std::vector<MixedOutcome> outcomes(items.size());

  // Dedup and the result cache are bypassed while an injection campaign is
  // enabled: chaos tests must observe every submission actually crossing
  // the fault points, and a fault-degraded outcome must never be replayed
  // to a healthy duplicate after the campaign ends.
  const bool caching = cache_ != nullptr && !fault::Injector::Get().enabled();
  const service::CacheDisposition graded =
      caching ? service::CacheDisposition::kMiss
              : service::CacheDisposition::kOff;
  const bool recording = obs::EventLog::Global().enabled();
  auto record = [&items, recording](size_t i,
                                    service::CacheDisposition cache,
                                    const service::GradingOutcome& outcome) {
    if (!recording) return;
    obs::EventLog::Global().Append(service::BuildWideEvent(
        items[i].id, items[i].assignment, cache, outcome));
  };

  // Dedup groups keyed by (shard, token fingerprint): duplicates coalesce
  // onto their leader's pipeline run without consuming extra quota.
  struct Group {
    uint64_t ticket = 0;
    size_t shard = 0;
    uint64_t fingerprint = 0;
    std::vector<size_t> indexes;
  };
  std::vector<Group> groups;
  struct Key {
    size_t shard;
    uint64_t fingerprint;
    bool operator==(const Key& o) const {
      return shard == o.shard && fingerprint == o.fingerprint;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.fingerprint * 1099511628211ull ^
                                   k.shard);
    }
  };
  std::unordered_map<Key, size_t, KeyHash> group_by_key;

  for (size_t i = 0; i < items.size(); ++i) {
    size_t shard_index;
    if (!FindShard(items[i].assignment, &shard_index)) {
      outcomes[i].status = Status::NotFound("unknown assignment '" +
                                            items[i].assignment + "'");
      continue;
    }
    uint64_t fingerprint = 0;
    if (caching) {
      fingerprint = TokenFingerprint(items[i].source);
      Key key{shard_index, fingerprint};
      auto in_flight = group_by_key.find(key);
      if (in_flight != group_by_key.end()) {
        groups[in_flight->second].indexes.push_back(i);
        ++stats->dedup_hits;
        continue;
      }
      service::GradingOutcome cached;
      if (cache_->Lookup(items[i].assignment, fingerprint, &cached)) {
        // Re-stamp the request's own trace: the cached copy still carries
        // the trace of whichever request graded it originally.
        if (items[i].trace.valid()) {
          cached.trace_id = obs::TraceIdHex(items[i].trace);
          cached.span_id = obs::SpanIdHex(items[i].trace.span_id);
        }
        service::CountCacheDisposition(service::CacheDisposition::kHit);
        record(i, service::CacheDisposition::kHit, cached);
        // A cache hit is a (near-instant) good SLO event: the tenant was
        // served successfully.
        obs::SloTracker::Global().RecordGrade(items[i].assignment, 0,
                                              obs::SloTracker::NowS());
        outcomes[i].status = Status::OK();
        outcomes[i].outcome = std::move(cached);
        outcomes[i].disposition =
            service::CacheDispositionName(service::CacheDisposition::kHit);
        ++stats->cache_hits;
        continue;
      }
    }
    uint64_t ticket = 0;
    // Non-blocking admission: a line over its shard's quota is shed here
    // and now — one tenant's spike must not stall the whole mixed batch.
    Status admitted = Admit(shard_index, items[i].source, items[i].id,
                            graded, items[i].trace, &ticket);
    if (!admitted.ok()) {
      outcomes[i].status = std::move(admitted);
      continue;
    }
    ++stats->graded;
    Group group;
    group.ticket = ticket;
    group.shard = shard_index;
    group.fingerprint = fingerprint;
    group.indexes.push_back(i);
    if (caching) {
      group_by_key.emplace(Key{shard_index, fingerprint}, groups.size());
    }
    groups.push_back(std::move(group));
  }

  for (auto& group : groups) {
    service::GradingOutcome outcome = TakeResult(group.ticket);
    if (caching) {
      cache_->Insert(shards_[group.shard]->assignment->id, group.fingerprint,
                     outcome);
    }
    for (size_t k = 1; k < group.indexes.size(); ++k) {
      size_t i = group.indexes[k];
      service::CountCacheDisposition(service::CacheDisposition::kDedup);
      outcomes[i].status = Status::OK();
      outcomes[i].outcome = outcome;
      // Same re-stamp as a cache hit: the follower's line answers a
      // different request (and possibly trace) than the leader's run.
      if (items[i].trace.valid()) {
        outcomes[i].outcome.trace_id = obs::TraceIdHex(items[i].trace);
        outcomes[i].outcome.span_id = obs::SpanIdHex(items[i].trace.span_id);
      }
      record(i, service::CacheDisposition::kDedup, outcomes[i].outcome);
      obs::SloTracker::Global().RecordGrade(items[i].assignment, 0,
                                            obs::SloTracker::NowS());
      outcomes[i].disposition =
          service::CacheDispositionName(service::CacheDisposition::kDedup);
    }
    size_t leader = group.indexes.front();
    outcomes[leader].status = Status::OK();
    // The grading worker already counted this submission; resolve the same
    // disposition for the batch line without double-counting.
    outcomes[leader].disposition = service::CacheDispositionName(
        service::ResolveCacheDisposition(graded, outcome));
    outcomes[leader].outcome = std::move(outcome);
  }
  return outcomes;
}

std::vector<std::string> ShardedScheduler::assignment_ids() const {
  std::vector<std::string> ids;
  ids.reserve(shards_.size());
  for (const auto& shard : shards_) ids.push_back(shard->assignment->id);
  return ids;
}

size_t ShardedScheduler::ShardDepth(const std::string& assignment_id) const {
  size_t index;
  if (!FindShard(assignment_id, &index)) return 0;
  return shards_[index]->depth.load(std::memory_order_acquire);
}

bool ShardedScheduler::Saturated() const {
  for (const auto& shard : shards_) {
    if (shard->depth.load(std::memory_order_acquire) <
        options_.shard_queue_capacity) {
      return false;
    }
  }
  return !shards_.empty();
}

}  // namespace jfeed::sched

namespace jfeed::service {

std::vector<GradingOutcome> GradeBatchParallel(
    const kb::Assignment& assignment, std::vector<std::string> sources,
    const PipelineOptions& pipeline_options,
    sched::ShardedSchedulerOptions scheduler_options,
    const std::vector<std::string>& ids, sched::BatchStats* stats) {
  // The quota is the batch itself, so every line is admitted; the queued
  // jobs hold at most one copy of the sources, which move into the items.
  scheduler_options.shard_queue_capacity = sources.size();
  sched::ShardedScheduler scheduler({&assignment}, pipeline_options,
                                    scheduler_options);
  std::vector<sched::MixedItem> items;
  items.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    items.push_back(sched::MixedItem{assignment.id,
                                     i < ids.size() ? ids[i] : "",
                                     std::move(sources[i]),
                                     obs::TraceContext()});
  }
  std::vector<GradingOutcome> outcomes;
  outcomes.reserve(items.size());
  for (sched::MixedOutcome& line : scheduler.GradeMixedBatch(items, stats)) {
    if (!line.status.ok()) {
      // Not reachable while the quota covers the batch; the outcome still
      // says what happened rather than passing for an empty parse failure.
      line.outcome.failure = FailureClass::kInternalFault;
      line.outcome.diagnostic = line.status.ToString();
    }
    outcomes.push_back(std::move(line.outcome));
  }
  return outcomes;
}

}  // namespace jfeed::service
