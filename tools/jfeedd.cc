// jfeedd: the long-running grading daemon. One instance serves one or many
// knowledge-base assignments over HTTP on loopback:
//
//   jfeedd <assignment-id> [flags]      single-tenant
//   jfeedd <id1>,<id2>,... [flags]      multi-tenant: one shard per id
//   jfeedd --all [flags]                multi-tenant: every assignment
//   jfeedd --list                       list assignment ids
//
// Endpoints (see DESIGN.md §5f/§6b for the full contract):
//   POST /grade     NDJSON submissions in (grade --batch line format; a
//                   line's "assignment" key routes it in multi-tenant
//                   mode), NDJSON outcomes out, input order preserved.
//                   Unknown assignments answer per-line code:404 objects,
//                   admission sheds per-line code:429; only an all-shed
//                   request is HTTP 429 (+ Retry-After) as a whole.
//   GET  /metrics   Prometheus text exposition
//   GET  /healthz   readiness (200 ok | 503 draining/saturated/degraded)
//   GET  /statusz   build info, uptime, utilization, per-shard depth/shed
//   GET  /tracez    recent trace spans (JSON; ?limit=N); ?format=chrome
//                   [&pid=N] exports a Chrome/Perfetto trace instead
//   GET  /events    per-submission flight recorder (NDJSON; ?limit=N,
//                   ?assignment=<id> narrows to one tenant, ?trace_id=<id>
//                   to one distributed trace)
//   GET  /sloz      per-assignment SLO budgets and burn rates (JSON)
//
// Flags:
//   --port <n>             listen port (default 0 = ephemeral, printed)
//   --jobs <n>             grading worker threads, shared by all shards
//                          (default 4)
//   --shard-queue <n>      per-assignment admission quota (default 256
//                          single-tenant, 64 multi-tenant); beyond it that
//                          assignment's submissions are shed with 429
//   --no-cache             disable the content-addressed result cache
//   --method-cache         enable method-level incremental grading
//                          (resubmissions reuse unedited methods)
//   --events <n>           flight-recorder ring capacity (default 1024)
//   --timeout-ms <n>       per-functional-test wall deadline (ms)
//   --max-heap-bytes <n>   interpreter heap budget per test (bytes)
//   --worker-id <n>        fleet worker id when supervised by jfeed-broker;
//                          also arms parent-death detection (on Linux the
//                          kernel delivers SIGTERM if the broker dies, so
//                          an orphaned worker drains instead of lingering)
//   --slo-latency-ms <n>   per-assignment latency objective: a grade slower
//                          than this burns error budget (default 30000)
//   --slo-target-ppm <n>   availability target in parts-per-million
//                          (default 999000 = 99.9%)
//   --slo-window-s <n>     error-budget window seconds (default 3600)
//   --slo-fast-window-s <n> fast burn-rate window seconds (default 60)
//   --slo-min-events <n>   events required in a burn window before its
//                          alert can fire (default 50)
//   --no-slo-health        do not degrade /healthz on fast budget burn
//
// Shutdown: SIGINT/SIGTERM begin a drain — /healthz flips to 503 and new
// POST /grade work is refused while in-flight grading finishes and the
// introspection endpoints keep answering — then the daemon stops and exits
// 0. A second signal is unnecessary; the first one always terminates.
//
// Exit codes: 0 clean shutdown, 2 usage/startup error (unknown assignment
// or unbindable port).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#include <unistd.h>
#endif

#include "kb/assignments.h"
#include "service/daemon.h"

namespace {

int ListAssignments() {
  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  for (const auto& id : kb.assignment_ids()) {
    std::printf("%-20s %s\n", id.c_str(),
                kb.assignment(id).spec.title.c_str());
  }
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <assignment-id>[,<id>...] [--port N] [--jobs N] "
               "[--shard-queue N] [--no-cache] [--method-cache] "
               "[--events N] "
               "[--timeout-ms N] [--max-heap-bytes N] [--worker-id N] "
               "[--slo-latency-ms N] [--slo-target-ppm N] [--slo-window-s N] "
               "[--slo-fast-window-s N] [--slo-min-events N] "
               "[--no-slo-health]\n"
               "       %s --all [flags]   serve every assignment\n"
               "       %s --list\n",
               argv0, argv0, argv0);
  return 2;
}

/// Splits "a1,a2,a3" on commas; empty segments are dropped.
std::vector<std::string> SplitIds(const char* text) {
  std::vector<std::string> ids;
  std::string current;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!current.empty()) ids.push_back(current);
      current.clear();
      if (*p == '\0') break;
    } else {
      current.push_back(*p);
    }
  }
  return ids;
}

bool ParseInt64(const char* text, int64_t* out) {
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--list") == 0) {
    return ListAssignments();
  }
  bool serve_all = argc >= 2 && std::strcmp(argv[1], "--all") == 0;
  if (argc < 2 || (argv[1][0] == '-' && !serve_all)) return Usage(argv[0]);

  jfeed::service::DaemonOptions options;
  if (!serve_all) {
    std::vector<std::string> ids = SplitIds(argv[1]);
    if (ids.empty()) return Usage(argv[0]);
    if (ids.size() == 1) {
      options.assignment_id = ids.front();
    } else {
      options.assignments = std::move(ids);
    }
  }
  // serve_all leaves both forms empty: the daemon loads every assignment.
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--no-cache") == 0) {
      options.use_result_cache = false;
      continue;
    }
    if (std::strcmp(arg, "--method-cache") == 0) {
      options.use_method_cache = true;
      continue;
    }
    if (std::strcmp(arg, "--no-slo-health") == 0) {
      options.slo_health = false;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", arg);
      return 2;
    }
    int64_t value = 0;
    if (!ParseInt64(argv[i + 1], &value)) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", arg, argv[i + 1]);
      return 2;
    }
    ++i;
    if (std::strcmp(arg, "--port") == 0) {
      if (value > 65535) {
        std::fprintf(stderr, "--port out of range: %lld\n",
                     static_cast<long long>(value));
        return 2;
      }
      options.port = static_cast<uint16_t>(value);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      options.jobs = static_cast<int>(value);
    } else if (std::strcmp(arg, "--shard-queue") == 0) {
      options.shard_queue_capacity = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--events") == 0) {
      options.event_capacity = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--timeout-ms") == 0) {
      options.pipeline.exec.deadline_ms = value;
    } else if (std::strcmp(arg, "--max-heap-bytes") == 0) {
      options.pipeline.exec.max_heap_bytes = value;
    } else if (std::strcmp(arg, "--worker-id") == 0) {
      options.worker_id = static_cast<int>(value);
    } else if (std::strcmp(arg, "--slo-latency-ms") == 0) {
      options.slo.latency_threshold_us = value * 1000;
    } else if (std::strcmp(arg, "--slo-target-ppm") == 0) {
      if (value > 1'000'000) {
        std::fprintf(stderr, "--slo-target-ppm out of range: %lld\n",
                     static_cast<long long>(value));
        return 2;
      }
      options.slo.availability_target_ppm = value;
    } else if (std::strcmp(arg, "--slo-window-s") == 0) {
      options.slo.window_s = value > 0 ? value : 1;
    } else if (std::strcmp(arg, "--slo-fast-window-s") == 0) {
      options.slo.fast_window_s = value > 0 ? value : 1;
    } else if (std::strcmp(arg, "--slo-min-events") == 0) {
      options.slo.min_events = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return Usage(argv[0]);
    }
  }

  if (options.worker_id >= 0) {
#ifdef __linux__
    // Supervised worker: die (gracefully, via the drain path below) when
    // the broker process disappears, instead of lingering orphaned on a
    // port nobody routes to. Re-check the parent immediately — if the
    // broker died between fork and here, PDEATHSIG never fires.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() == 1) {
      std::fprintf(stderr, "jfeedd: supervisor already gone, exiting\n");
      return 2;
    }
#endif
  }

  // Block the termination signals in every thread the daemon will spawn,
  // then claim them with sigwait below: the signal is handled as ordinary
  // control flow on the main thread instead of in a handler context.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  jfeed::service::GradingDaemon daemon(options);
  jfeed::Status status = daemon.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "jfeedd: %s\n", status.ToString().c_str());
    return 2;
  }
  std::string serving;
  if (!options.assignment_id.empty()) {
    serving = "assignment '" + options.assignment_id + "'";
  } else if (!options.assignments.empty()) {
    serving = std::to_string(options.assignments.size()) + " assignments (";
    for (size_t i = 0; i < options.assignments.size(); ++i) {
      if (i > 0) serving += ",";
      serving += options.assignments[i];
    }
    serving += ")";
  } else {
    serving = "all " +
              std::to_string(
                  jfeed::kb::KnowledgeBase::Get().assignment_ids().size()) +
              " assignments";
  }
  std::printf("jfeedd %s serving %s on http://127.0.0.1:%u "
              "(%d workers; POST /grade, GET /metrics /healthz /statusz "
              "/tracez /events /sloz)\n",
              jfeed::service::kJfeedVersion, serving.c_str(), daemon.port(),
              options.jobs);
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::printf("jfeedd: received %s, draining\n",
              signal_number == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  daemon.BeginDrain();
  daemon.Stop();
  std::printf("jfeedd: drained, bye\n");
  return 0;
}
