#include "service/pipeline.h"

#include <atomic>
#include <chrono>
#include <set>
#include <utility>

#include "core/expr_pattern.h"
#include "core/feedback.h"
#include "core/pattern.h"
#include "javalang/analysis.h"
#include "javalang/parser.h"
#include "javalang/printer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdg/epdg.h"
#include "support/fault.h"
#include "support/json.h"

namespace jfeed::service {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kParse: return "parse";
    case Stage::kEpdg: return "epdg";
    case Stage::kMatch: return "match";
    case Stage::kFunctional: return "functional";
    case Stage::kComplete: return "complete";
  }
  return "unknown";
}

const char* FailureClassName(FailureClass failure) {
  switch (failure) {
    case FailureClass::kNone: return "none";
    case FailureClass::kParseError: return "parse_error";
    case FailureClass::kTimeout: return "timeout";
    case FailureClass::kResourceExhausted: return "resource_exhausted";
    case FailureClass::kInternalFault: return "internal_fault";
  }
  return "unknown";
}

const char* FeedbackTierName(FeedbackTier tier) {
  switch (tier) {
    case FeedbackTier::kFullEpdg: return "full_epdg";
    case FeedbackTier::kAstOnly: return "ast_only";
    case FeedbackTier::kParseDiagnostic: return "parse_diagnostic";
  }
  return "unknown";
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kCorrect: return "correct";
    case Verdict::kIncorrect: return "incorrect";
    case Verdict::kSpecMismatch: return "spec_mismatch";
    case Verdict::kNotGraded: return "not_graded";
  }
  return "unknown";
}

const char* CacheDispositionName(CacheDisposition disposition) {
  switch (disposition) {
    case CacheDisposition::kHit: return "hit";
    case CacheDisposition::kDedup: return "dedup";
    case CacheDisposition::kMiss: return "miss";
    case CacheDisposition::kOff: return "off";
    case CacheDisposition::kPartialHit: return "partial_hit";
  }
  return "unknown";
}

FailureClass ClassifyFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return FailureClass::kNone;
    case StatusCode::kParseError:
    case StatusCode::kSemanticError:
      return FailureClass::kParseError;
    case StatusCode::kTimeout:
      return FailureClass::kTimeout;
    case StatusCode::kResourceExhausted:
      return FailureClass::kResourceExhausted;
    default:
      return FailureClass::kInternalFault;
  }
}

namespace {

using Clock = std::chrono::steady_clock;

// Soft budgets, checked when the stage returns: these stages are bounded by
// construction (linear scans and capped backtracking), so a check after the
// fact is enough to classify and report an overrun as a timeout.
constexpr int64_t kParseBudgetMs = 2'000;
constexpr int64_t kEpdgBudgetMs = 2'000;
constexpr int64_t kMatchBudgetMs = 5'000;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// --- Observability instruments ----------------------------------------------
//
// Metric names here are part of the monitoring contract (DESIGN.md §6).
// Handles resolve once per process; updates are thread-local shard writes
// that no-op until a sink enables the registry.

/// Per-stage wall-time distribution, labeled by stage name.
obs::Histogram* StageDurationHistogram(Stage stage) {
  static obs::Histogram* histograms[] = {
      obs::Registry::Global().GetHistogram(
          "jfeed_stage_duration_us", "Pipeline stage wall time (microseconds)",
          {{"stage", "parse"}}),
      obs::Registry::Global().GetHistogram(
          "jfeed_stage_duration_us", "Pipeline stage wall time (microseconds)",
          {{"stage", "epdg"}}),
      obs::Registry::Global().GetHistogram(
          "jfeed_stage_duration_us", "Pipeline stage wall time (microseconds)",
          {{"stage", "match"}}),
      obs::Registry::Global().GetHistogram(
          "jfeed_stage_duration_us", "Pipeline stage wall time (microseconds)",
          {{"stage", "functional"}}),
  };
  size_t index = static_cast<size_t>(stage);
  return index < 4 ? histograms[index] : histograms[0];
}

/// One counter per degradation-ladder rung — the chaos suite asserts these
/// move when a fault forces a rung drop.
obs::Counter* TierCounter(FeedbackTier tier) {
  static obs::Counter* counters[] = {
      obs::Registry::Global().GetCounter(
          "jfeed_outcomes_total", "Graded submissions by feedback tier",
          {{"tier", "full_epdg"}}),
      obs::Registry::Global().GetCounter(
          "jfeed_outcomes_total", "Graded submissions by feedback tier",
          {{"tier", "ast_only"}}),
      obs::Registry::Global().GetCounter(
          "jfeed_outcomes_total", "Graded submissions by feedback tier",
          {{"tier", "parse_diagnostic"}}),
  };
  size_t index = static_cast<size_t>(tier);
  return index < 3 ? counters[index] : counters[0];
}

obs::Counter* FailureCounter(FailureClass failure) {
  static obs::Counter* counters[] = {
      nullptr,  // kNone: healthy runs are counted by tier, not failure.
      obs::Registry::Global().GetCounter(
          "jfeed_failures_total", "Grading failures by class",
          {{"class", "parse_error"}}),
      obs::Registry::Global().GetCounter(
          "jfeed_failures_total", "Grading failures by class",
          {{"class", "timeout"}}),
      obs::Registry::Global().GetCounter(
          "jfeed_failures_total", "Grading failures by class",
          {{"class", "resource_exhausted"}}),
      obs::Registry::Global().GetCounter(
          "jfeed_failures_total", "Grading failures by class",
          {{"class", "internal_fault"}}),
  };
  size_t index = static_cast<size_t>(failure);
  return index < 5 ? counters[index] : nullptr;
}

obs::Counter* VerdictCounter(Verdict verdict) {
  static obs::Counter* counters[] = {
      obs::Registry::Global().GetCounter("jfeed_verdicts_total",
                                         "Grading verdicts",
                                         {{"verdict", "correct"}}),
      obs::Registry::Global().GetCounter("jfeed_verdicts_total",
                                         "Grading verdicts",
                                         {{"verdict", "incorrect"}}),
      obs::Registry::Global().GetCounter("jfeed_verdicts_total",
                                         "Grading verdicts",
                                         {{"verdict", "spec_mismatch"}}),
      obs::Registry::Global().GetCounter("jfeed_verdicts_total",
                                         "Grading verdicts",
                                         {{"verdict", "not_graded"}}),
  };
  size_t index = static_cast<size_t>(verdict);
  return index < 4 ? counters[index] : counters[3];
}

/// Rolls one finished outcome into the tier/verdict/failure counters — the
/// per-rung accounting the chaos suite checks for coherence after faults.
void FinishObservation(const GradingOutcome& outcome) {
  TierCounter(outcome.tier)->Increment();
  VerdictCounter(outcome.verdict)->Increment();
  if (obs::Counter* failures = FailureCounter(outcome.failure)) {
    failures->Increment();
  }
}

// --- AST-pattern-only fallback ---------------------------------------------
//
// When the EPDG builder or the graph matcher fails (infrastructure fault,
// injected or real), the pipeline falls back to checking each pattern node
// against the flat list of statement contents of the submission: the same
// normalized expression text the EPDG nodes would carry, but with no
// structural edges and therefore no constraints. The resulting feedback is
// weaker — presence/absence per pattern — but always available for any
// submission that parses.

/// One expression-bearing statement of a method: its normalized content
/// text and the variables it mentions.
struct StmtFact {
  std::string content;
  std::set<std::string> vars;
};

void AddExprFact(const java::Expr& e, std::vector<StmtFact>* out) {
  out->push_back({java::ExprToString(e), java::VarsMentioned(e)});
}

void CollectFacts(const java::Stmt& s, std::vector<StmtFact>* out) {
  switch (s.kind) {
    case java::StmtKind::kBlock:
      for (const auto& child : s.body) CollectFacts(*child, out);
      return;
    case java::StmtKind::kLocalVarDecl:
      for (const auto& decl : s.decls) {
        StmtFact fact;
        fact.content = s.decl_type.ToString() + " " + decl.name;
        fact.vars.insert(decl.name);
        if (decl.init) {
          fact.content += " = " + java::ExprToString(*decl.init);
          for (const auto& v : java::VarsMentioned(*decl.init)) {
            fact.vars.insert(v);
          }
        }
        out->push_back(std::move(fact));
      }
      return;
    case java::StmtKind::kExprStmt:
      if (s.expr) AddExprFact(*s.expr, out);
      return;
    case java::StmtKind::kIf:
      if (s.expr) AddExprFact(*s.expr, out);
      if (s.then_branch) CollectFacts(*s.then_branch, out);
      if (s.else_branch) CollectFacts(*s.else_branch, out);
      return;
    case java::StmtKind::kWhile:
    case java::StmtKind::kDoWhile:
      if (s.expr) AddExprFact(*s.expr, out);
      if (s.loop_body) CollectFacts(*s.loop_body, out);
      return;
    case java::StmtKind::kFor:
      if (s.for_init) CollectFacts(*s.for_init, out);
      if (s.expr) AddExprFact(*s.expr, out);
      for (const auto& update : s.for_update) AddExprFact(*update, out);
      if (s.loop_body) CollectFacts(*s.loop_body, out);
      return;
    case java::StmtKind::kSwitch:
      if (s.expr) AddExprFact(*s.expr, out);
      for (const auto& arm : s.switch_cases) {
        for (const auto& stmt : arm.body) CollectFacts(*stmt, out);
      }
      return;
    case java::StmtKind::kReturn: {
      StmtFact fact;
      fact.content = "return";
      if (s.expr) {
        fact.content += " " + java::ExprToString(*s.expr);
        fact.vars = java::VarsMentioned(*s.expr);
      }
      out->push_back(std::move(fact));
      return;
    }
    case java::StmtKind::kBreak:
    case java::StmtKind::kContinue:
      out->push_back(
          {s.kind == java::StmtKind::kBreak ? "break" : "continue", {}});
      return;
  }
}

enum class NodePresence { kExact, kApprox, kMissing };

/// Does `node` match any statement of the method, and how well? Exact via
/// r; approximate via r̂.
NodePresence ProbeNode(const core::PatternNode& node,
                       const std::vector<StmtFact>& facts) {
  if (node.exact.empty() && node.approx.empty()) {
    // A node with no expression template (e.g. a bare kCond slot) only
    // constrains graph structure, which this tier cannot see: trivially
    // present.
    return NodePresence::kExact;
  }
  if (!node.exact.empty()) {
    for (const auto& fact : facts) {
      for (const auto& gamma :
           core::EnumerateInjections(node.exact.variables(), fact.vars)) {
        if (node.exact.Matches(fact.content, gamma)) {
          return NodePresence::kExact;
        }
      }
    }
  }
  if (!node.approx.empty()) {
    for (const auto& fact : facts) {
      for (const auto& gamma :
           core::EnumerateInjections(node.approx.variables(), fact.vars)) {
        if (node.approx.Matches(fact.content, gamma)) {
          return NodePresence::kApprox;
        }
      }
    }
  }
  return NodePresence::kMissing;
}

/// Presence verdict for a whole pattern: present iff every node is found
/// (exactly or approximately).
struct PatternPresence {
  bool present = false;
  bool all_exact = false;
  std::vector<NodePresence> nodes;
};

PatternPresence ProbePattern(const core::Pattern& pattern,
                             const std::vector<StmtFact>& facts) {
  PatternPresence presence;
  presence.present = true;
  presence.all_exact = true;
  for (const auto& node : pattern.nodes) {
    NodePresence p = ProbeNode(node, facts);
    presence.nodes.push_back(p);
    if (p == NodePresence::kMissing) presence.present = false;
    if (p != NodePresence::kExact) presence.all_exact = false;
  }
  return presence;
}

core::FeedbackComment AstOnlyComment(const core::PatternUse& use,
                                     const PatternPresence& presence,
                                     const std::string& method_name) {
  const core::Pattern& pattern = *use.pattern;
  core::FeedbackComment comment;
  comment.source_id = pattern.id;
  comment.method = method_name;
  bool expected_present = use.expected_count > 0;
  if (!expected_present) {
    // Bad pattern: correct exactly when absent.
    if (presence.present) {
      comment.kind = core::FeedbackKind::kNotExpected;
      comment.message = core::InstantiateFeedback(pattern.feedback_missing, {});
    } else {
      comment.kind = core::FeedbackKind::kCorrect;
      comment.message =
          "Good: '" + pattern.name + "' does not occur in your submission";
    }
    return comment;
  }
  if (!presence.present) {
    comment.kind = core::FeedbackKind::kNotExpected;
    comment.message = core::InstantiateFeedback(pattern.feedback_missing, {});
    return comment;
  }
  comment.kind = presence.all_exact ? core::FeedbackKind::kCorrect
                                    : core::FeedbackKind::kIncorrect;
  comment.message = core::InstantiateFeedback(pattern.feedback_present, {});
  for (size_t u = 0; u < pattern.nodes.size(); ++u) {
    const core::PatternNode& node = pattern.nodes[u];
    const std::string& tmpl = presence.nodes[u] == NodePresence::kExact
                                  ? node.feedback_correct
                                  : node.feedback_incorrect;
    if (!tmpl.empty()) {
      comment.details.push_back(core::InstantiateFeedback(tmpl, {}));
    }
  }
  return comment;
}

/// The AST-only rung of the degradation ladder: per-pattern presence
/// feedback computed from statement contents alone. Constraints are skipped
/// (they are defined over EPDG embeddings).
core::SubmissionFeedback AstOnlyFeedback(const core::AssignmentSpec& spec,
                                         const java::CompilationUnit& unit) {
  core::SubmissionFeedback feedback;
  if (unit.methods.size() < spec.methods.size()) {
    return feedback;  // Does not adhere to the spec; matched stays false.
  }
  feedback.matched = true;
  for (const auto& q : spec.methods) {
    // Prefer the method with the expected name; fall back to the whole
    // unit's statements when the student renamed it.
    std::vector<StmtFact> facts;
    const java::Method* method = unit.FindMethod(q.expected_name);
    if (method != nullptr && method->body != nullptr) {
      CollectFacts(*method->body, &facts);
      feedback.method_assignment[q.expected_name] = method->name;
    } else {
      for (const auto& m : unit.methods) {
        if (m.body != nullptr) CollectFacts(*m.body, &facts);
      }
    }
    for (const auto& use : q.patterns) {
      if (use.pattern == nullptr) continue;
      PatternPresence presence = ProbePattern(*use.pattern, facts);
      // Try variants when the primary realization is missing, mirroring the
      // full matcher's variation handling.
      if (!presence.present && use.expected_count > 0) {
        for (const auto& variant : use.variants) {
          if (variant.pattern == nullptr) continue;
          PatternPresence vp = ProbePattern(*variant.pattern, facts);
          if (vp.present) {
            presence = vp;
            break;
          }
        }
      }
      feedback.comments.push_back(AstOnlyComment(
          use, presence,
          method != nullptr ? method->name : q.expected_name));
    }
  }
  feedback.score = core::FeedbackScore(feedback.comments);
  return feedback;
}

/// Parses the reference solution and runs it over the suite inputs; the
/// uncached oracle computation.
Result<std::vector<std::string>> ComputeReferenceOutputs(
    const kb::Assignment& assignment) {
  auto reference = java::Parse(assignment.Reference());
  if (!reference.ok()) {
    return Status(reference.status().code(),
                  "reference solution unavailable: " +
                      reference.status().message());
  }
  return testing::ComputeExpectedOutputs(*reference, assignment.suite);
}

}  // namespace

Result<std::vector<std::string>> ReferenceOracle::ExpectedOutputs(
    const kb::Assignment& assignment) {
  // Bypass the memo while faults are injectable: campaigns must observe
  // every reference parse/execution, and an injected failure must not be
  // served back after the campaign ends.
  if (fault::Injector::Get().enabled()) {
    return ComputeReferenceOutputs(assignment);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (cached_) return expected_;
  auto computed = ComputeReferenceOutputs(assignment);
  if (!computed.ok()) return computed.status();  // Failures recompute.
  expected_ = std::move(computed).value();
  cached_ = true;
  return expected_;
}

void AppendOutcomeJsonMembers(const GradingOutcome& outcome,
                              std::string* out) {
  auto field = [out](const char* name, bool first = false) {
    if (!first) out->push_back(',');
    AppendJsonString(name, out);
    out->push_back(':');
  };
  auto boolean = [out](bool value) { *out += value ? "true" : "false"; };
  field("verdict", /*first=*/true);
  AppendJsonString(VerdictName(outcome.verdict), out);
  field("trace_id");
  AppendJsonString(outcome.trace_id, out);
  field("span_id");
  AppendJsonString(outcome.span_id, out);
  field("tier");
  AppendJsonString(FeedbackTierName(outcome.tier), out);
  field("stage_reached");
  AppendJsonString(StageName(outcome.stage_reached), out);
  field("failure_class");
  AppendJsonString(FailureClassName(outcome.failure), out);
  field("degraded");
  boolean(outcome.degraded());
  field("diagnostic");
  AppendJsonString(outcome.diagnostic, out);
  field("matched");
  boolean(outcome.feedback.matched);
  field("score");
  AppendFixed(outcome.feedback.score, out);
  field("match_steps");
  AppendInt(outcome.feedback.match_stats.steps, out);
  field("match_regex_checks");
  AppendInt(outcome.feedback.match_stats.regex_checks, out);
  field("arena_bytes_peak");
  AppendInt(outcome.arena_bytes_peak, out);
  field("methods_reused");
  AppendInt(outcome.methods_reused, out);
  field("methods_regraded");
  AppendInt(outcome.methods_regraded, out);
  field("comments");
  out->push_back('[');
  for (size_t i = 0; i < outcome.feedback.comments.size(); ++i) {
    const auto& c = outcome.feedback.comments[i];
    if (i > 0) out->push_back(',');
    *out += "{\"kind\":";
    AppendJsonString(core::FeedbackKindName(c.kind), out);
    *out += ",\"source\":";
    AppendJsonString(c.source_id, out);
    *out += ",\"message\":";
    AppendJsonString(c.message, out);
    out->push_back('}');
  }
  out->push_back(']');
  field("functional");
  if (outcome.functional_ran) {
    *out += "{\"passed\":";
    boolean(outcome.functional.passed);
    *out += ",\"tests_run\":";
    AppendInt(outcome.functional.tests_run, out);
    *out += ",\"tests_failed\":";
    AppendInt(outcome.functional.tests_failed, out);
    *out += ",\"first_failure\":";
    AppendJsonString(outcome.functional.first_failure, out);
    out->push_back('}');
  } else {
    *out += "null";
  }
  field("stage_timings");
  // Grade records each stage at most once; stages that never started are
  // absent.
  {
    double per_stage[4] = {0.0, 0.0, 0.0, 0.0};
    bool seen[4] = {false, false, false, false};
    for (const auto& t : outcome.timings) {
      size_t index = static_cast<size_t>(t.stage);
      if (index < 4) {
        per_stage[index] += t.wall_ms;
        seen[index] = true;
      }
    }
    out->push_back('{');
    bool first = true;
    for (size_t s = 0; s < 4; ++s) {
      if (!seen[s]) continue;
      if (!first) out->push_back(',');
      first = false;
      AppendJsonString(StageName(static_cast<Stage>(s)), out);
      out->push_back(':');
      AppendFixed(per_stage[s], out);
    }
    out->push_back('}');
  }
  field("timings_ms");
  out->push_back('[');
  for (size_t i = 0; i < outcome.timings.size(); ++i) {
    const auto& t = outcome.timings[i];
    if (i > 0) out->push_back(',');
    *out += "{\"stage\":";
    AppendJsonString(StageName(t.stage), out);
    *out += ",\"ms\":";
    AppendFixed(t.wall_ms, out);
    *out += ",\"status\":";
    AppendJsonString(t.status.ToString(), out);
    out->push_back('}');
  }
  out->push_back(']');
}

std::string OutcomeToJson(const GradingOutcome& outcome) {
  std::string out = "{";
  AppendOutcomeJsonMembers(outcome, &out);
  out.push_back('}');
  return out;
}

obs::WideEvent BuildWideEvent(const std::string& submission_id,
                              const std::string& assignment_id,
                              CacheDisposition cache,
                              const GradingOutcome& outcome) {
  obs::WideEvent event;
  event.unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  event.submission_id = submission_id;
  event.assignment = assignment_id;
  event.verdict = VerdictName(outcome.verdict);
  event.tier = FeedbackTierName(outcome.tier);
  event.failure_class = FailureClassName(outcome.failure);
  event.trace_id = outcome.trace_id;
  event.span_id = outcome.span_id;
  event.cache = CacheDispositionName(cache);
  event.degraded = outcome.degraded();
  event.diagnostic = outcome.diagnostic;
  event.score = outcome.feedback.score;
  event.match_steps =
      static_cast<int64_t>(outcome.feedback.match_stats.steps);
  event.match_regex_checks =
      static_cast<int64_t>(outcome.feedback.match_stats.regex_checks);
  event.arena_bytes_peak = outcome.arena_bytes_peak;
  event.methods_reused = outcome.methods_reused;
  event.methods_regraded = outcome.methods_regraded;
  if (outcome.functional_ran) {
    event.interp_steps = outcome.functional.interp_steps;
    event.interp_heap_bytes = outcome.functional.interp_heap_bytes;
    event.interp_output_bytes = outcome.functional.interp_output_bytes;
    event.functional_tests_run = outcome.functional.tests_run;
    event.functional_tests_failed = outcome.functional.tests_failed;
    event.functional_timeouts = outcome.functional.timeouts;
    event.interp_steps_failed = outcome.functional.interp_steps_failed;
  }
  // Stage timings per stage, mirroring OutcomeToJson's stage_timings
  // object (Grade records each stage at most once).
  for (const auto& t : outcome.timings) {
    switch (t.stage) {
      case Stage::kParse: event.parse_ms += t.wall_ms; break;
      case Stage::kEpdg: event.epdg_ms += t.wall_ms; break;
      case Stage::kMatch: event.match_ms += t.wall_ms; break;
      case Stage::kFunctional: event.functional_ms += t.wall_ms; break;
      case Stage::kComplete: break;
    }
  }
  return event;
}

CacheDisposition ResolveCacheDisposition(CacheDisposition base,
                                         const GradingOutcome& outcome) {
  if (outcome.methods_reused > 0 && (base == CacheDisposition::kMiss ||
                                     base == CacheDisposition::kOff)) {
    return CacheDisposition::kPartialHit;
  }
  return base;
}

void CountCacheDisposition(CacheDisposition disposition) {
  // Each disposition resolves its counter once, on first use, so a scrape
  // lists only dispositions that happened. Get* is idempotent, so two
  // threads racing on a first use store the same pointer. One slot per
  // disposition; kPartialHit is the last.
  static std::atomic<obs::Counter*>
      counters[static_cast<size_t>(CacheDisposition::kPartialHit) + 1];
  std::atomic<obs::Counter*>& slot =
      counters[static_cast<size_t>(disposition)];
  obs::Counter* counter = slot.load();
  if (counter == nullptr) {
    counter = obs::Registry::Global().GetCounter(
        "jfeed_cache_requests_total",
        "Answered submissions by final cache disposition",
        {{"disposition", CacheDispositionName(disposition)}});
    slot.store(counter);
  }
  counter->Increment();
}

GradingOutcome GradingPipeline::Grade(const std::string& source) const {
  GradingOutcome outcome;

  // Root trace span of this submission; stage spans nest under it (and the
  // layers below — lex, match.index, interp.call — nest under those via the
  // thread-current chain). It also inherits the distributed trace of any
  // enclosing span — the scheduler's sched.job span adopted from the
  // request's traceparent — and stamps the join keys into the outcome.
  obs::Span grade_span("grade");
  if (grade_span.recording()) {
    outcome.trace_id = obs::TraceIdHex(grade_span.context());
    outcome.span_id = obs::SpanIdHex(grade_span.id());
  }

  // Claim the recycled per-submission memory; a concurrent Grade() on the
  // same instance (not how the schedulers use pipelines) gets private
  // per-call memory instead of contending.
  std::unique_lock<std::mutex> memory_lock(memory_mu_, std::try_to_lock);
  pdg::EpdgMemory private_memory;
  Arena private_scratch;
  pdg::EpdgMemory* memory = &private_memory;
  Arena* scratch = &private_scratch;
  if (memory_lock.owns_lock()) {
    epdg_memory_.Reset();
    match_scratch_.Reset();
    memory = &epdg_memory_;
    scratch = &match_scratch_;
  }
  // Every AST node of this grade — the parsed unit — bump-allocates from
  // the submission arena while this scope is alive. Those nodes are locals
  // of this call (the scope closes, and they are destroyed, before the
  // arena is reset for the next submission).
  java::AstArenaScope ast_scope(&memory->arena);
  // Bytes this submission drew from the arenas; bump allocation only grows
  // within a cycle, so the end-of-grade reading is the cycle peak.
  auto record_arena = [&outcome, memory, scratch] {
    outcome.arena_bytes_peak = static_cast<int64_t>(
        memory->arena.bytes_allocated() + scratch->bytes_allocated());
  };

  // Records one stage's wall time and status; on failure, the first failing
  // stage defines the outcome's failure class and diagnostic. A soft budget
  // overrun is recorded as a timeout failure even when the stage succeeded.
  auto finish_stage = [&outcome](Stage stage, Clock::time_point start,
                                 const Status& status, int64_t budget_ms) {
    StageTiming timing;
    timing.stage = stage;
    timing.wall_ms = MsSince(start);
    timing.status = status;
    StageDurationHistogram(stage)->Record(
        static_cast<int64_t>(timing.wall_ms * 1000.0));
    outcome.timings.push_back(timing);
    if (outcome.failure == FailureClass::kNone) {
      if (!status.ok()) {
        outcome.failure = ClassifyFailure(status);
        outcome.diagnostic = status.ToString();
      } else if (budget_ms > 0 && timing.wall_ms > budget_ms) {
        outcome.failure = FailureClass::kTimeout;
        outcome.diagnostic = std::string(StageName(stage)) +
                             " stage exceeded its " +
                             std::to_string(budget_ms) + "ms budget";
      }
    }
    return status.ok();
  };

  // Stage 1: parse. Failure here is the bottom rung — a parse diagnostic is
  // all the feedback we can give.
  outcome.stage_reached = Stage::kParse;
  auto parse_start = Clock::now();
  obs::Span parse_span("parse", grade_span);
  auto unit = java::Parse(source);
  parse_span.End();
  if (!finish_stage(Stage::kParse, parse_start, unit.status(),
                    kParseBudgetMs)) {
    outcome.tier = FeedbackTier::kParseDiagnostic;
    outcome.verdict = Verdict::kNotGraded;
    record_arena();
    FinishObservation(outcome);
    return outcome;
  }

  // Stage 2: EPDG construction. Failure degrades to AST-only feedback.
  //
  // With a method cache configured this is where incremental grading forks
  // (DESIGN.md §3d): each parsed method is looked up by content
  // fingerprint; a hit pins the cached entry (graph + match cells built by
  // an earlier grade), a miss builds a pinned entry from the parsed method
  // and publishes it. Any lookup fault or entry-build failure abandons the
  // incremental path for the *whole* submission and regrades cold — never
  // wrong feedback, never a poisoned entry. While a fault campaign is
  // enabled the cache is bypassed in both directions, but lookups still
  // run so campaigns targeting cache.method_lookup observe every crossing.
  outcome.stage_reached = Stage::kEpdg;
  auto epdg_start = Clock::now();
  obs::Span epdg_span("epdg", grade_span);
  bool incremental = false;
  std::vector<std::shared_ptr<MethodEntry>> pinned;
  if (options_.method_cache != nullptr) {
    const bool campaign = fault::Injector::Get().enabled();
    incremental = !campaign;
    pinned.reserve(unit->methods.size());
    for (const auto& method : unit->methods) {
      auto found =
          options_.method_cache->Lookup(assignment_.id, method.fingerprint);
      if (!found.ok()) {
        incremental = false;
        break;
      }
      if (campaign) continue;  // Point crossed; reuse and insert bypassed.
      std::shared_ptr<MethodEntry> entry = std::move(*found);
      if (entry == nullptr) {
        auto built = MethodCache::BuildEntry(method);
        if (!built.ok()) {
          incremental = false;
          break;
        }
        entry = options_.method_cache->Insert(
            assignment_.id, method.fingerprint, std::move(*built));
        ++outcome.methods_regraded;
      } else {
        ++outcome.methods_reused;
      }
      pinned.push_back(std::move(entry));
    }
    if (!incremental) {
      outcome.methods_reused = 0;
      outcome.methods_regraded = static_cast<int>(unit->methods.size());
      pinned.clear();
    }
  }
  // The graphs the match stage runs on: the pinned entries' graphs with
  // their cell stores, or — cold — graphs built here in the recycled arena
  // with no stores.
  std::vector<pdg::Epdg> cold_graphs;
  std::vector<core::MethodGraphRef> refs;
  Status epdg_status;
  if (incremental) {
    refs.reserve(pinned.size());
    for (const auto& entry : pinned) {
      refs.push_back({entry->graph.get(), &entry->cells});
    }
  } else {
    auto built = pdg::BuildAllEpdgs(*unit, memory);
    epdg_status = built.status();
    if (built.ok()) {
      cold_graphs = std::move(built).value();
      refs.reserve(cold_graphs.size());
      for (const auto& graph : cold_graphs) refs.push_back({&graph, nullptr});
    }
  }
  epdg_span.End();
  bool epdg_ok = finish_stage(Stage::kEpdg, epdg_start, epdg_status,
                              kEpdgBudgetMs);

  // Stage 3: pattern matching — full EPDG matching when the graphs exist,
  // the AST-only fallback otherwise (or when the matcher itself fails).
  outcome.stage_reached = Stage::kMatch;
  auto match_start = Clock::now();
  obs::Span match_span("match", grade_span);
  bool matched_full = false;
  if (epdg_ok) {
    core::SubmissionMatchOptions match_options = options_.match;
    match_options.match.scratch_arena = scratch;
    // Incremental grades reuse the pinned methods' cells, so only the
    // cross-method combination step (Algorithm 2) and new cells run.
    auto feedback =
        core::MatchSubmissionGraphs(assignment_.spec, refs, match_options);
    if (feedback.ok()) {
      outcome.feedback = std::move(feedback).value();
      outcome.tier = FeedbackTier::kFullEpdg;
      matched_full = true;
      finish_stage(Stage::kMatch, match_start, Status::OK(), kMatchBudgetMs);
    } else {
      finish_stage(Stage::kMatch, match_start, feedback.status(),
                   kMatchBudgetMs);
    }
  }
  if (!matched_full) {
    // The AST-only rung gets its own span so a trace shows which part of
    // the match stage was fallback work.
    obs::Span ast_only_span("match.ast_only", match_span);
    outcome.feedback = AstOnlyFeedback(assignment_.spec, *unit);
    outcome.tier = FeedbackTier::kAstOnly;
    ast_only_span.End();
    if (!epdg_ok) {
      // The match stage still ran (via the fallback); record its timing.
      finish_stage(Stage::kMatch, match_start, Status::OK(), kMatchBudgetMs);
    }
  }
  match_span.End();

  // Stage 4: functional testing. Needs only the parsed unit, so it runs on
  // both feedback tiers; its own failures (reference broken, injected
  // interpreter fault) degrade to pattern-only verdicts.
  if (options_.run_functional && outcome.feedback.matched) {
    outcome.stage_reached = Stage::kFunctional;
    auto func_start = Clock::now();
    obs::Span functional_span("functional", grade_span);
    Status func_status;
    obs::Span oracle_span("oracle", functional_span);
    auto expected = oracle_->ExpectedOutputs(assignment_);
    oracle_span.End();
    if (!expected.ok()) {
      func_status = expected.status();
    } else {
      interp::ExecOptions exec = assignment_.suite.exec_options;
      exec.max_heap_bytes = options_.exec.max_heap_bytes;
      exec.max_output_bytes = options_.exec.max_output_bytes;
      exec.deadline_ms = options_.exec.deadline_ms;
      outcome.functional = testing::RunSuiteGuarded(
          *unit, assignment_.suite, *expected, exec,
          options_.budgets.functional_ms);
      outcome.functional_ran = true;
    }
    functional_span.End();
    finish_stage(Stage::kFunctional, func_start, func_status,
                 options_.budgets.functional_ms);
  }
  outcome.stage_reached = Stage::kComplete;

  // Final verdict.
  if (!outcome.feedback.matched) {
    outcome.verdict = Verdict::kSpecMismatch;
  } else if (outcome.feedback.AllCorrect() &&
             (!outcome.functional_ran || outcome.functional.passed)) {
    outcome.verdict = Verdict::kCorrect;
  } else {
    outcome.verdict = Verdict::kIncorrect;
  }
  record_arena();
  FinishObservation(outcome);
  return outcome;
}

std::vector<GradingOutcome> GradingPipeline::GradeBatch(
    const std::vector<std::string>& sources) const {
  std::vector<GradingOutcome> outcomes;
  outcomes.reserve(sources.size());
  for (const auto& source : sources) {
    // Each submission gets fresh budgets and fresh interpreter state; the
    // pipeline is stateless, so an adversarial submission can burn only its
    // own budgets, never the batch's.
    outcomes.push_back(Grade(source));
  }
  return outcomes;
}

}  // namespace jfeed::service
