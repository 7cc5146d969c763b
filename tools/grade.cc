// Command-line grader: reads a Java submission from a file (or stdin), runs
// it through the hardened grading pipeline (parse -> EPDG -> pattern match
// -> functional tests, with resource guards and graceful degradation) and
// prints the personalized feedback for a knowledge-base assignment.
//
//   grade <assignment-id> [file.java] [flags]   grade a submission
//   grade <assignment-id> --batch [file] [flags]  grade an NDJSON batch
//   grade --list                                list assignment ids
//   grade <assignment-id> --reference           print the reference solution
//   grade <assignment-id> --dot [file]          print the submission's EPDG
//
// Flags:
//   --timeout-ms <n>       wall-clock deadline per functional test (ms)
//   --max-heap-bytes <n>   interpreter heap budget per test (bytes)
//   --json                 print the structured GradingOutcome as JSON
//   --trace-out=<file>     write a Chrome trace_event JSON of the run
//                          (open in Perfetto / chrome://tracing)
//   --metrics-out=<file>   write the Prometheus text metrics dump
//   --events-out=<file>    write the flight recorder as NDJSON — one wide
//                          event per graded submission (DESIGN.md §6b)
//
// Batch mode (--batch): the input (file or stdin) is NDJSON, one submission
// per line — either {"id": "...", "source": "..."} or a bare JSON string —
// and the output is NDJSON too, one JSON outcome per line in input order
// (each outcome carries the line's id and index). Submissions are graded by
// the concurrent scheduler: a worker pool with a content-addressed result
// cache, so duplicate submissions cost one grade. Batch-only flags:
//   --jobs <n>             worker threads (default 4)
//   --no-cache             disable the content-addressed result cache
//   --method-cache         enable method-level incremental grading: a
//                          resubmission reuses the unedited methods'
//                          graphs and match cells (cache="partial_hit")
//
// Exit codes:
//   0  the submission was fully graded (feedback produced at the full EPDG
//      tier, whether or not it was correct); in batch mode, every line was
//   1  degraded outcome: parse failure, budget blowup, spec mismatch, or an
//      internal fault forced a lower feedback tier; in batch mode, any line
//      degraded or failed to parse as NDJSON
//   2  usage error (unknown assignment, unreadable file, bad flag)

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/feedback.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdg/epdg.h"
#include "sched/batch_io.h"
#include "sched/sharded_scheduler.h"
#include "service/pipeline.h"

namespace {

std::string ReadAll(std::istream& in) {
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int ListAssignments() {
  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  for (const auto& id : kb.assignment_ids()) {
    const auto& a = kb.assignment(id);
    std::printf("%-20s %s\n", id.c_str(), a.spec.title.c_str());
  }
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <assignment-id> [file.java] [--timeout-ms N] "
               "[--max-heap-bytes N] [--json]\n"
               "       %s <assignment-id> --batch [file.ndjson] [--jobs N] "
               "[--no-cache] [--method-cache]\n"
               "       %s <assignment-id> --reference\n"
               "       %s <assignment-id> --dot [file.java]\n"
               "       %s --list\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Best-effort observability dumps: an unwritable path warns on stderr but
/// never changes the grading exit code — feedback always outranks telemetry.
void DumpObservability(const char* trace_out, const char* metrics_out,
                       const char* events_out) {
  if (metrics_out != nullptr) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out);
    } else {
      out << jfeed::obs::Registry::Global().Render();
    }
  }
  if (trace_out != nullptr) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_out);
    } else {
      out << jfeed::obs::Tracer::Global().ExportChromeJson();
    }
  }
  if (events_out != nullptr) {
    std::ofstream out(events_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", events_out);
    } else {
      out << jfeed::obs::EventLog::Global().RenderNdjson();
    }
  }
}

/// Parses a positive integer flag value; returns false on garbage.
bool ParseInt64(const char* text, int64_t* out) {
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v <= 0) return false;
  *out = v;
  return true;
}

/// The NDJSON batch front end: reads one submission per input line, grades
/// the whole batch through the concurrent scheduler, writes one JSON
/// outcome per output line in input order. Returns the process exit code.
int RunBatch(const jfeed::kb::Assignment& assignment, std::istream& in,
             const jfeed::service::PipelineOptions& pipeline_options,
             const jfeed::sched::ShardedSchedulerOptions& scheduler_options) {
  // Decode every line first; bad lines get an error outcome but do not
  // block the rest of the batch.
  std::vector<std::string> ids;
  std::vector<std::string> sources;      // Parallel to ids.
  std::vector<size_t> submission_index;  // Line index -> sources index.
  std::vector<std::string> line_errors;  // Line index -> error ("" if ok).
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // Blank lines separate nothing; skip quietly.
    }
    auto decoded = jfeed::sched::ParseBatchLine(line);
    if (!decoded.ok()) {
      submission_index.push_back(SIZE_MAX);
      line_errors.push_back(decoded.status().message());
      continue;
    }
    submission_index.push_back(sources.size());
    line_errors.push_back("");
    ids.push_back(decoded->id);
    sources.push_back(std::move(decoded->source));
  }

  jfeed::sched::BatchStats stats;
  auto outcomes = jfeed::service::GradeBatchParallel(
      assignment, std::move(sources), pipeline_options, scheduler_options, ids,
      &stats);

  bool all_clean = true;
  for (size_t i = 0; i < submission_index.size(); ++i) {
    if (submission_index[i] == SIZE_MAX) {
      std::printf("%s\n",
                  jfeed::sched::BatchErrorToJson(
                      i, jfeed::Status::InvalidArgument(line_errors[i]))
                      .c_str());
      all_clean = false;
      continue;
    }
    const auto& outcome = outcomes[submission_index[i]];
    std::printf("%s\n",
                jfeed::sched::BatchOutcomeToJson(ids[submission_index[i]], i,
                                                 outcome)
                    .c_str());
    if (outcome.degraded() ||
        outcome.verdict == jfeed::service::Verdict::kSpecMismatch) {
      all_clean = false;
    }
  }
  std::fprintf(stderr,
               "graded %zu submissions (%zu pipeline runs, %zu cache hits, "
               "%zu dedup hits, %.1f%% served without grading) on %d workers\n",
               stats.submissions, stats.graded, stats.cache_hits,
               stats.dedup_hits, 100.0 * stats.HitRate(),
               scheduler_options.jobs);
  return all_clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--list") == 0) {
    return ListAssignments();
  }
  if (argc < 2) return Usage(argv[0]);

  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  std::string id = argv[1];
  bool known = false;
  for (const auto& known_id : kb.assignment_ids()) known |= known_id == id;
  if (!known) {
    std::fprintf(stderr, "unknown assignment '%s' (try --list)\n",
                 id.c_str());
    return 2;
  }
  const auto& assignment = kb.assignment(id);

  // Flag parsing: flags may appear anywhere after the assignment id; the
  // first non-flag argument is the submission file.
  bool dot = false;
  bool json = false;
  bool batch = false;
  const char* path = nullptr;
  const char* trace_out = nullptr;
  const char* metrics_out = nullptr;
  const char* events_out = nullptr;
  jfeed::service::PipelineOptions options;
  jfeed::sched::ShardedSchedulerOptions scheduler_options;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--reference") == 0) {
      std::fputs(assignment.Reference().c_str(), stdout);
      return 0;
    } else if (std::strcmp(arg, "--dot") == 0) {
      dot = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--batch") == 0) {
      batch = true;
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      scheduler_options.use_result_cache = false;
    } else if (std::strcmp(arg, "--method-cache") == 0) {
      scheduler_options.use_method_cache = true;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_out = arg + 14;
    } else if (std::strncmp(arg, "--events-out=", 13) == 0) {
      events_out = arg + 13;
    } else if (std::strcmp(arg, "--timeout-ms") == 0 ||
               std::strcmp(arg, "--max-heap-bytes") == 0 ||
               std::strcmp(arg, "--jobs") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg);
        return 2;
      }
      int64_t value = 0;
      if (!ParseInt64(argv[++i], &value)) {
        std::fprintf(stderr, "bad value for %s: '%s'\n", arg, argv[i]);
        return 2;
      }
      if (std::strcmp(arg, "--timeout-ms") == 0) {
        options.exec.deadline_ms = value;
      } else if (std::strcmp(arg, "--max-heap-bytes") == 0) {
        options.exec.max_heap_bytes = value;
      } else {
        scheduler_options.jobs = static_cast<int>(value);
      }
    } else if (arg[0] == '-' && arg[1] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return Usage(argv[0]);
    } else if (path == nullptr) {
      path = arg;
    } else {
      return Usage(argv[0]);
    }
  }

  // Turn the observability layer on only when someone asked for its output:
  // without a sink the registry/tracer stay runtime-disabled and every
  // instrument in the pipeline is a single relaxed atomic load.
  if (metrics_out != nullptr) jfeed::obs::Registry::Global().set_enabled(true);
  if (trace_out != nullptr) jfeed::obs::Tracer::Global().Enable();
  if (events_out != nullptr) {
    jfeed::obs::EventLog::Global().set_enabled(true);
  }

  if (batch) {
    int rc;
    if (path != nullptr) {
      std::ifstream file(path);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 2;
      }
      rc = RunBatch(assignment, file, options, scheduler_options);
    } else {
      rc = RunBatch(assignment, std::cin, options, scheduler_options);
    }
    DumpObservability(trace_out, metrics_out, events_out);
    return rc;
  }

  std::string source;
  if (path != nullptr) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 2;
    }
    source = ReadAll(file);
  } else {
    source = ReadAll(std::cin);
  }

  if (dot) {
    auto unit = jfeed::java::Parse(source);
    if (!unit.ok()) {
      std::fprintf(stderr, "submission does not parse: %s\n",
                   unit.status().ToString().c_str());
      return 1;
    }
    for (const auto& method : unit->methods) {
      auto graph = jfeed::pdg::BuildEpdg(method);
      if (!graph.ok()) {
        std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
        return 1;
      }
      std::fputs(graph->ToDot().c_str(), stdout);
    }
    return 0;
  }

  jfeed::service::GradingPipeline pipeline(assignment, options);
  // The CLI is its own outermost trace entry point: mint a root context so
  // the --json outcome (and any --trace-out export) carries a trace id even
  // for a local one-shot grade. When the tracer is off the span does not
  // record and the minted id is stamped below as the fallback.
  jfeed::obs::TraceContext cli_ctx = jfeed::obs::MintTraceContext();
  jfeed::service::GradingOutcome outcome;
  {
    jfeed::obs::Span cli_span("grade.cli", cli_ctx);
    outcome = pipeline.Grade(source);
  }
  if (outcome.trace_id.empty()) {
    outcome.trace_id = jfeed::obs::TraceIdHex(cli_ctx);
  }
  if (jfeed::obs::EventLog::Global().enabled()) {
    // Single-submission mode never touches the result cache, hence "off";
    // the submission file path doubles as the recorder id.
    jfeed::obs::EventLog::Global().Append(jfeed::service::BuildWideEvent(
        path != nullptr ? path : "stdin", assignment.id,
        jfeed::service::CacheDisposition::kOff, outcome));
  }

  if (json) {
    std::printf("%s\n", jfeed::service::OutcomeToJson(outcome).c_str());
  } else if (outcome.tier ==
             jfeed::service::FeedbackTier::kParseDiagnostic) {
    std::fprintf(stderr, "submission does not parse: %s\n",
                 outcome.diagnostic.c_str());
  } else if (outcome.verdict == jfeed::service::Verdict::kSpecMismatch) {
    std::printf("The submission does not provide the expected method(s); "
                "no feedback can be given.\nExpected: ");
    for (const auto& method : assignment.spec.methods) {
      std::printf("%s ", method.expected_name.c_str());
    }
    std::printf("\n");
  } else {
    if (outcome.degraded()) {
      std::printf("[degraded: %s feedback — %s]\n",
                  jfeed::service::FeedbackTierName(outcome.tier),
                  outcome.diagnostic.c_str());
    }
    std::fputs(jfeed::core::RenderFeedback(outcome.feedback.comments).c_str(),
               stdout);
    std::printf("score: %.1f / %zu\n", outcome.feedback.score,
                outcome.feedback.comments.size());
    if (outcome.functional_ran) {
      std::printf("functional: %d/%d tests passed\n",
                  outcome.functional.tests_run -
                      outcome.functional.tests_failed,
                  outcome.functional.tests_run);
    }
  }
  DumpObservability(trace_out, metrics_out, events_out);
  // Exit taxonomy: 0 = fully graded, 1 = any degradation (parse failure,
  // budget blowup, fault-forced tier drop, spec mismatch), 2 = usage error.
  bool graded = !outcome.degraded() &&
                outcome.verdict != jfeed::service::Verdict::kSpecMismatch;
  return graded ? 0 : 1;
}
