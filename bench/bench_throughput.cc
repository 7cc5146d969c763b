// Batch-grading throughput benchmark for the concurrent scheduler
// (GradeBatchParallel on a one-shard ShardedScheduler): grades a
// synthetic MOOC-scale corpus (default: 1000 Assignment 1 submissions drawn
// from ~200 distinct variants, the rest comment-perturbed resubmissions)
// and reports submissions/sec at 1/2/4/8 workers.
//
// Two sweeps:
//   - cache OFF: pure worker-pool scaling — every submission pays for a
//     full pipeline run, so the jobs-N/jobs-1 ratio is the parallel speedup.
//   - cache ON: the content-addressed result cache collapses token-identical
//     resubmissions (comments and whitespace do not defeat the fingerprint),
//     so the report adds the cache+dedup hit rate.
//
// Before timing anything, the harness cross-checks that the parallel engine
// is semantically equivalent to the sequential pipeline: verdict, feedback
// tier, failure class and feedback text must agree for every corpus member.
//
// Thread scaling is only observable when the host grants >1 hardware
// threads; on a single-core host the jobs sweep measures scheduling
// overhead, not speedup, and the report says so.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alloc_probe.h"
#include "kb/assignments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/sharded_scheduler.h"
#include "service/pipeline.h"
#include "synth/generator.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Builds a corpus of `total` submissions with `distinct` token-distinct
/// variants; the remainder are resubmissions of earlier members perturbed
/// with a unique comment, so byte equality never short-circuits the
/// content-addressed cache — only token-normalized hashing can dedup them.
std::vector<std::string> BuildCorpus(const jfeed::kb::Assignment& assignment,
                                     size_t total, size_t distinct) {
  std::vector<std::string> variants;
  for (uint64_t index : jfeed::synth::SampleIndexes(
           assignment.generator.SpaceSize(), distinct)) {
    variants.push_back(assignment.generator.Generate(index));
  }
  std::vector<std::string> corpus;
  corpus.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    if (i < variants.size()) {
      corpus.push_back(variants[i]);
    } else {
      corpus.push_back("// resubmission " + std::to_string(i) + "\n" +
                       variants[i % variants.size()] + "\n");
    }
  }
  return corpus;
}

bool Equivalent(const jfeed::service::GradingOutcome& a,
                const jfeed::service::GradingOutcome& b) {
  if (a.verdict != b.verdict || a.tier != b.tier || a.failure != b.failure) {
    return false;
  }
  if (a.feedback.comments.size() != b.feedback.comments.size()) return false;
  for (size_t i = 0; i < a.feedback.comments.size(); ++i) {
    if (a.feedback.comments[i].message != b.feedback.comments[i].message) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t total = 1000;
  size_t distinct = 200;
  std::string assignment_id = "assignment1";
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--submissions") == 0 && i + 1 < argc) {
      total = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--distinct") == 0 && i + 1 < argc) {
      distinct = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--assignment") == 0 && i + 1 < argc) {
      assignment_id = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_path = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_path = argv[i] + 12;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--submissions N] [--distinct N] "
                   "[--assignment id] [--json=PATH] [--metrics-out=PATH] "
                   "[--trace-out=PATH]\n",
                   argv[0]);
      return 1;
    }
  }

  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  bool known = false;
  for (const auto& id : kb.assignment_ids()) known |= id == assignment_id;
  if (!known) {
    std::fprintf(stderr, "unknown assignment '%s'\n", assignment_id.c_str());
    return 1;
  }
  const auto& assignment = kb.assignment(assignment_id);
  std::vector<std::string> corpus = BuildCorpus(assignment, total, distinct);

  unsigned hw = std::thread::hardware_concurrency();
  std::printf("batch throughput: %zu submissions of %s (%zu distinct), "
              "%u hardware thread%s\n\n",
              corpus.size(), assignment_id.c_str(),
              std::min(distinct, corpus.size()), hw, hw == 1 ? "" : "s");

  // Equivalence gate: the numbers below are only meaningful if the parallel
  // engine grades exactly like the sequential pipeline.
  {
    jfeed::service::GradingPipeline pipeline(assignment);
    auto sequential = pipeline.GradeBatch(corpus);
    jfeed::sched::ShardedSchedulerOptions sopts;
    sopts.jobs = 4;
    auto parallel =
        jfeed::service::GradeBatchParallel(assignment, corpus, {}, sopts);
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (!Equivalent(sequential[i], parallel[i])) {
        std::fprintf(stderr,
                     "FAIL: parallel outcome %zu diverges from sequential\n",
                     i);
        return 1;
      }
    }
    std::printf("equivalence: parallel == sequential on all %zu outcomes "
                "(verdict, tier, failure class, feedback text)\n\n",
                corpus.size());
  }

  std::printf("%-6s %12s %12s %10s %10s\n", "jobs", "cache", "sub/sec",
              "speedup", "hit rate");
  double base_rate = 0.0;
  std::string json_rows;
  for (bool cache_on : {false, true}) {
    for (int jobs : {1, 2, 4, 8}) {
      jfeed::sched::ShardedSchedulerOptions sopts;
      sopts.jobs = jobs;
      sopts.use_result_cache = cache_on;
      jfeed::sched::BatchStats stats;
      Clock::time_point t0 = Clock::now();
      auto outcomes = jfeed::service::GradeBatchParallel(assignment, corpus,
                                                         {}, sopts, {}, &stats);
      double seconds = SecondsSince(t0);
      double rate = seconds > 0 ? corpus.size() / seconds : 0.0;
      if (!cache_on && jobs == 1) base_rate = rate;
      std::printf("%-6d %12s %12.1f %9.2fx %9.1f%%\n", jobs,
                  cache_on ? "on" : "off", rate,
                  base_rate > 0 ? rate / base_rate : 0.0,
                  100.0 * stats.HitRate());
      if (!json_rows.empty()) json_rows += ",\n";
      json_rows += "    {\"jobs\": " + std::to_string(jobs) +
                   ", \"cache\": " + (cache_on ? "true" : "false") +
                   ", \"submissions_per_sec\": " + std::to_string(rate) +
                   ", \"hit_rate\": " + std::to_string(stats.HitRate()) + "}";
      if (outcomes.size() != corpus.size()) {
        std::fprintf(stderr, "FAIL: %zu outcomes for %zu submissions\n",
                     outcomes.size(), corpus.size());
        return 1;
      }
    }
  }
  // Steady-state allocations per full Grade() on the pooled sequential
  // pipeline: first pass warms the arenas and lazy pattern state, second
  // pass is the number. Deterministic where the wall-clock rates above
  // jitter with the runner.
  int64_t allocs_per_submission = 0;
  {
    size_t probe_n = std::min<size_t>(corpus.size(), 100);
    std::vector<std::string> probe_corpus(corpus.begin(),
                                          corpus.begin() + probe_n);
    jfeed::service::GradingPipeline pipeline(assignment);
    pipeline.GradeBatch(probe_corpus);
    int64_t before = jfeed::bench::AllocCount();
    pipeline.GradeBatch(probe_corpus);
    allocs_per_submission = (jfeed::bench::AllocCount() - before) /
                            static_cast<int64_t>(probe_n);
    std::printf("\nsteady-state heap allocations: %lld per Grade() "
                "(pooled pipeline, %zu-submission probe)\n",
                static_cast<long long>(allocs_per_submission), probe_n);
  }

  // Observability overhead: the obs layer's acceptance bar is <5% wall time
  // with tracing AND metrics enabled versus a disabled registry. Both runs
  // use the contended configuration (jobs=4, cache off) so every submission
  // pays for the fully instrumented pipeline.
  double obs_baseline_s = 0.0;
  double obs_instrumented_s = 0.0;
  {
    auto timed_run = [&assignment, &corpus] {
      jfeed::sched::ShardedSchedulerOptions sopts;
      sopts.jobs = 4;
      sopts.use_result_cache = false;
      Clock::time_point t0 = Clock::now();
      jfeed::service::GradeBatchParallel(assignment, corpus, {}, sopts);
      return SecondsSince(t0);
    };
    obs_baseline_s = timed_run();
    jfeed::obs::Registry::Global().set_enabled(true);
    jfeed::obs::Tracer::Global().Enable();
    obs_instrumented_s = timed_run();
    double overhead_pct =
        obs_baseline_s > 0
            ? 100.0 * (obs_instrumented_s - obs_baseline_s) / obs_baseline_s
            : 0.0;
    std::printf(
        "\nobservability overhead (jobs=4, cache off): baseline %.3fs, "
        "tracing+metrics %.3fs, %+.1f%%\n",
        obs_baseline_s, obs_instrumented_s, overhead_pct);
  }
  if (!metrics_path.empty()) {
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::fputs(jfeed::obs::Registry::Global().Render().c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fputs(jfeed::obs::Tracer::Global().ExportChromeJson().c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", trace_path.c_str());
  }
  jfeed::obs::Tracer::Global().Disable();
  jfeed::obs::Registry::Global().set_enabled(false);

  if (!json_path.empty()) {
    // Wall-clock rates vary with the runner; the JSON is an artifact for
    // tracking trends, not a CI gate.
    std::string out = "{\n  \"schema\": \"jfeed-bench-throughput-v1\",\n";
    out += "  \"assignment\": \"" + assignment_id + "\",\n";
    out += "  \"submissions\": " + std::to_string(corpus.size()) + ",\n";
    out += "  \"distinct\": " +
           std::to_string(std::min(distinct, corpus.size())) + ",\n";
    out += "  \"hardware_threads\": " + std::to_string(hw) + ",\n";
    out += "  \"allocs_per_submission\": " +
           std::to_string(allocs_per_submission) + ",\n";
    double overhead_pct =
        obs_baseline_s > 0
            ? 100.0 * (obs_instrumented_s - obs_baseline_s) / obs_baseline_s
            : 0.0;
    out += "  \"obs\": {\"baseline_s\": " + std::to_string(obs_baseline_s) +
           ", \"instrumented_s\": " + std::to_string(obs_instrumented_s) +
           ", \"overhead_pct\": " + std::to_string(overhead_pct) + "},\n";
    out += "  \"rows\": [\n" + json_rows + "\n  ]\n}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(out.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (hw <= 1) {
    std::printf(
        "\nnote: single hardware thread — the jobs sweep measures scheduler "
        "overhead here;\nworker-pool speedup requires a multi-core host. The "
        "cache rows show the\ncontent-addressed dedup win, which is "
        "core-count independent.\n");
  }
  return 0;
}
