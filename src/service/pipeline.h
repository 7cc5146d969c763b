#ifndef JFEED_SERVICE_PIPELINE_H_
#define JFEED_SERVICE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/submission_matcher.h"
#include "interp/interpreter.h"
#include "kb/assignments.h"
#include "obs/event_log.h"
#include "pdg/epdg.h"
#include "service/method_cache.h"
#include "support/arena.h"
#include "support/result.h"
#include "support/status.h"
#include "testing/functional.h"

namespace jfeed::service {

/// The stages a submission passes through, in order. `stage_reached` in a
/// GradingOutcome is the deepest stage that *started*; kComplete means the
/// whole chain ran.
enum class Stage { kParse, kEpdg, kMatch, kFunctional, kComplete };

/// Failure taxonomy of the grading service. Exactly one class is recorded
/// per outcome — the first failure that forced a degradation — so service
/// dashboards can separate student-caused failures (parse errors, budget
/// blowups) from infrastructure faults.
enum class FailureClass {
  kNone,               ///< Healthy run, no degradation.
  kParseError,         ///< Submission not in the accepted Java subset.
  kTimeout,            ///< A time budget expired (steps, wall-clock).
  kResourceExhausted,  ///< A space budget expired (heap, output, depth).
  kInternalFault,      ///< Infrastructure error (incl. injected faults).
};

/// How much of the feedback machinery was available for this outcome — the
/// graceful-degradation ladder. Full EPDG feedback when everything works;
/// AST-pattern-only feedback when EPDG construction or graph matching
/// fails (patterns are checked per-node against the parsed statements'
/// text, no structural edges, no constraints); a parse diagnostic when even
/// parsing fails. Every submission lands on some rung — the pipeline never
/// returns "crashed".
enum class FeedbackTier { kFullEpdg, kAstOnly, kParseDiagnostic };

/// Final verdict of one graded submission.
enum class Verdict {
  kCorrect,       ///< Graded; all feedback correct, functional tests pass.
  kIncorrect,     ///< Graded; some pattern/constraint/test failed.
  kSpecMismatch,  ///< Parsed, but does not provide the expected method(s).
  kNotGraded,     ///< Degraded to a parse diagnostic; no grading possible.
};

/// How an answered submission met the result cache (DESIGN.md §6).
enum class CacheDisposition {
  kHit,         ///< Served from the result cache.
  kDedup,       ///< Served from an identical line's grade in the same batch.
  kMiss,        ///< Graded; the result cache was consulted.
  kOff,         ///< Graded; no result cache was consulted.
  kPartialHit,  ///< Graded, but the method cache served some methods.
};

const char* StageName(Stage stage);
const char* FailureClassName(FailureClass failure);
const char* FeedbackTierName(FeedbackTier tier);
const char* VerdictName(Verdict verdict);
/// "hit", "dedup", "miss", "off" or "partial_hit": the `disposition` label
/// of jfeed_cache_requests_total and the wide event's `cache` field.
const char* CacheDispositionName(CacheDisposition disposition);

/// Maps a Status to the failure taxonomy (used for stage failures).
FailureClass ClassifyFailure(const Status& status);

/// Wall-clock budget of the functional stage, in milliseconds, enforced
/// pre-emptively (the interpreter checks its deadline while running). The
/// parse, EPDG and match stages have fixed soft budgets in pipeline.cc.
struct StageBudgets {
  int64_t functional_ms = 10'000;
};

/// Tuning for one pipeline instance.
struct PipelineOptions {
  StageBudgets budgets;
  /// Resource guards for each functional-test execution. The deadline is
  /// applied per test input; the suite as a whole is additionally bounded
  /// by budgets.functional_ms (checked between tests).
  interp::ExecOptions exec;
  /// Algorithm 1/2 tuning for the match stage.
  core::SubmissionMatchOptions match;
  /// Run the functional suite after pattern matching.
  bool run_functional = true;
  /// Incremental resubmission grading (DESIGN.md §3d): when set, the EPDG
  /// and match stages reuse pinned per-method entries keyed by content
  /// fingerprint, re-running only edited methods plus the cross-method
  /// combination step. Null (the default) grades cold. Share one instance
  /// across the pipelines of a scheduler to amortize across workers.
  std::shared_ptr<MethodCache> method_cache;

  PipelineOptions() {
    // Service defaults are deliberately tighter than the library defaults:
    // an untrusted submission gets 64 MiB of heap, 1 MiB of output and one
    // second of wall-clock per test.
    exec.max_heap_bytes = 64ll << 20;
    exec.max_output_bytes = 1ll << 20;
    exec.deadline_ms = 1'000;
  }
};

/// Wall-clock time and final status of one pipeline stage.
struct StageTiming {
  Stage stage = Stage::kParse;
  double wall_ms = 0.0;
  Status status;
};

/// The structured result of grading one submission. This is the service's
/// contract: *every* submission — adversarial, malformed, or hitting an
/// injected infrastructure fault — yields exactly one GradingOutcome; the
/// pipeline has no crash path.
struct GradingOutcome {
  Verdict verdict = Verdict::kNotGraded;
  FeedbackTier tier = FeedbackTier::kParseDiagnostic;
  Stage stage_reached = Stage::kParse;
  FailureClass failure = FailureClass::kNone;
  /// Human-readable rendering of the status that forced the degradation
  /// (empty for healthy runs).
  std::string diagnostic;
  /// Pattern/constraint feedback; meaningful unless tier is
  /// kParseDiagnostic. In the kAstOnly tier constraints are skipped (they
  /// need the EPDG) and comments carry per-node presence checks only.
  core::SubmissionFeedback feedback;
  /// Functional verdict; meaningful only when functional_ran.
  testing::FunctionalVerdict functional;
  bool functional_ran = false;
  std::vector<StageTiming> timings;
  /// Bytes bump-allocated from the per-submission arenas (EPDG memory +
  /// matcher scratch) while grading this submission. Zero when grading
  /// degraded before the EPDG stage.
  int64_t arena_bytes_peak = 0;
  /// Incremental-grading accounting: methods served from the method cache
  /// vs. methods that had to be (re)graded. Both zero when no method cache
  /// was configured; reused == 0 with regraded == method count when the
  /// cache was configured but this grade ran cold (first sight, lookup
  /// fault fallback, or campaign bypass).
  int methods_reused = 0;
  int methods_regraded = 0;
  /// Distributed-trace join keys, stamped by Grade() from the span that
  /// did the work (32-hex trace id, 16-hex span id; trace_context.h).
  /// Empty when tracing is off. A cached outcome is re-stamped by the
  /// scheduler with the trace of the request being answered, not the one
  /// that originally graded.
  std::string trace_id;
  std::string span_id;

  /// True when any rung below full EPDG feedback was taken or any budget
  /// fired.
  bool degraded() const {
    return tier != FeedbackTier::kFullEpdg || failure != FailureClass::kNone;
  }
};

/// Renders an outcome as a single JSON object (machine-readable form used
/// by `grade --json` and batch tooling).
std::string OutcomeToJson(const GradingOutcome& outcome);

/// Appends the members of OutcomeToJson's object, without its braces, so a
/// caller can splice them into a larger object in place.
void AppendOutcomeJsonMembers(const GradingOutcome& outcome,
                              std::string* out);

/// Flattens one outcome into the flight recorder's wide-event schema
/// (DESIGN.md §6b): verdict, rung, failure class, matcher work counters,
/// interpreter resource spend, per-stage wall times, all stamped with the
/// wall-clock completion time. `cache` is the cache disposition as seen by
/// the caller (see ResolveCacheDisposition below). The caller appends the
/// result to obs::EventLog::Global() (or a file sink).
obs::WideEvent BuildWideEvent(const std::string& submission_id,
                              const std::string& assignment_id,
                              CacheDisposition cache,
                              const GradingOutcome& outcome);

/// Pure mapping that folds method-cache reuse into a submission's cache
/// disposition: a kMiss/kOff grade that reused at least one method
/// becomes kPartialHit; kHit and kDedup pass through (the whole outcome was
/// served, method accounting is moot).
CacheDisposition ResolveCacheDisposition(CacheDisposition base,
                                         const GradingOutcome& outcome);

/// Bumps jfeed_cache_requests_total{disposition=...} (DESIGN.md §6
/// contract). Call exactly once per answered submission with its final
/// (resolved) disposition — the schedulers do this at the site that pays
/// for the grade or serves the cached copy, never at dedup-follower
/// fan-out.
void CountCacheDisposition(CacheDisposition disposition);

/// Thread-safe memo of a reference solution's expected outputs for one
/// assignment. The functional oracle is self-consistent (expected outputs
/// come from running the reference over the suite inputs), so without a
/// memo the reference runs once per *submission*; with one it runs once per
/// (assignment, test input). One oracle is private to each pipeline by
/// default; the scheduler shares a single oracle per assignment shard
/// across its worker pipelines so a whole parallel batch pays the reference
/// cost once.
///
/// While a fault-injection campaign is enabled the memo is bypassed in both
/// directions — nothing is served from it and nothing is stored — so chaos
/// campaigns see every reference execution and an injected reference
/// failure can never poison later healthy grades.
class ReferenceOracle {
 public:
  /// Expected stdout per suite input, parsed+computed on first use.
  /// Failures (unparseable reference, reference crash on a suite input) are
  /// NOT memoized; they are recomputed — and so re-observed — per call.
  Result<std::vector<std::string>> ExpectedOutputs(
      const kb::Assignment& assignment);

 private:
  std::mutex mu_;
  bool cached_ = false;
  std::vector<std::string> expected_;
};

/// The hardened grading service: wraps parse → EPDG → pattern match →
/// functional testing with per-stage budgets and the degradation ladder
/// described on FeedbackTier. Stateless across submissions: grading N
/// submissions from one pipeline instance is equivalent to grading each
/// from its own, which is what isolates a batch from an adversarial member.
/// (The one piece of retained state is the recycled per-submission memory
/// pool below — raw arena capacity, reset before every use, never grading
/// state.)
class GradingPipeline {
 public:
  /// `oracle` memoizes the reference solution's expected outputs; pass a
  /// shared instance to amortize the reference run across pipelines (the
  /// scheduler does), or leave it null for a private one.
  explicit GradingPipeline(const kb::Assignment& assignment,
                           PipelineOptions options = PipelineOptions(),
                           std::shared_ptr<ReferenceOracle> oracle = nullptr)
      : assignment_(assignment),
        options_(std::move(options)),
        oracle_(oracle != nullptr ? std::move(oracle)
                                  : std::make_shared<ReferenceOracle>()) {}

  GradingPipeline(const GradingPipeline&) = delete;
  GradingPipeline& operator=(const GradingPipeline&) = delete;

  const PipelineOptions& options() const { return options_; }

  /// Grades one submission. Total, never fails: all errors are folded into
  /// the returned outcome.
  GradingOutcome Grade(const std::string& source) const;

  /// Grades a batch. Each submission is graded with fresh budgets and
  /// fresh state; element i of the result corresponds to source i.
  std::vector<GradingOutcome> GradeBatch(
      const std::vector<std::string>& sources) const;

 private:
  const kb::Assignment& assignment_;
  PipelineOptions options_;
  std::shared_ptr<ReferenceOracle> oracle_;
  /// Recycled per-submission memory (DESIGN.md §3c): the EPDG arena +
  /// symbol table and the matcher's scratch arena. After the first few
  /// submissions the chunks reach steady state and a whole grade runs with
  /// near-zero allocator calls. A pipeline normally belongs to one worker
  /// thread; if concurrent Grade() calls do race into one instance, the
  /// try-lock loser falls back to private per-call memory, so reuse is an
  /// optimization and never a correctness dependency.
  mutable std::mutex memory_mu_;
  mutable pdg::EpdgMemory epdg_memory_;
  mutable Arena match_scratch_;
};

}  // namespace jfeed::service

#endif  // JFEED_SERVICE_PIPELINE_H_
