#include "workloads.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/submission_matcher.h"
#include "fleet/http_client.h"
#include "javalang/ast.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "obs/metrics.h"
#include "outcome_check.h"
#include "pdg/epdg.h"
#include "sched/result_cache.h"
#include "sched/sharded_scheduler.h"
#include "service/pipeline.h"
#include "spans.h"
#include "support/arena.h"
#include "testing/functional.h"
#include "testing/resubmission.h"
#include "testing/traffic.h"

namespace jbench {

namespace {

using jfeed::kb::Assignment;
using jfeed::service::GradingOutcome;
using jfeed::service::GradingPipeline;
using jfeed::service::PipelineOptions;

// --- Workloads ---------------------------------------------------------------

/// How a workload reaches the program: in process through the scheduler,
/// or over HTTP through a jfeedd child.
enum class Path { kInProcess, kServed };

struct WorkloadSpec {
  std::string name;
  Path path;
  std::vector<std::string> tenants;
  /// Submissions (regrade) or requests (served) generated per second of
  /// run: a ceiling far above the measured rate, so a run never runs out.
  size_t per_second;
  /// Distinct sources the traced run replays layer by layer: the first ones
  /// in input order, so the replay set depends on the seed alone. A regrade
  /// limit that is not a multiple of the tenant count leaves the last
  /// stratification cycle incomplete, so counts that add up per choice site
  /// (pdg.nodes) still differ from seed to seed.
  size_t replay_limit;
  /// Error-model submissions in the workload's pinned sample.
  size_t pinned;
};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"regrade-esc",
       Path::kInProcess,
       {"esc-LAB-3-P1-V1", "esc-LAB-3-P2-V1", "esc-LAB-3-P3-V2",
        "esc-LAB-3-P4-V2"},
       400,
       101,
       200},
      {"regrade-rit",
       Path::kInProcess,
       {"rit-all-g-medals", "rit-medals-by-ath"},
       8000,
       1001,
       400},
      {"served-resubmit",
       Path::kServed,
       {"assignment1", "mitx-polynomials", "mitx-derivatives",
        "esc-LAB-3-P2-V2"},
       24000,
       2000,
       400},
  };
  return specs;
}

/// The pinned sample is drawn with this seed whatever the run's seed is.
constexpr uint64_t kPinSeed = 0;

/// Client deadline of one served request; a failed request enters the
/// latency distribution at this value.
constexpr int64_t kRequestDeadlineMs = 30'000;

/// Submissions per POST /grade on the served workload, the way an LMS
/// forwards its students' submissions in NDJSON batches. Sent one per
/// request, back-to-back five-seed runs on a shared 4-vCPU VM read from
/// 1,800 to 7,200 submissions per second; sixteen per request held the
/// same runs within 3%.
constexpr size_t kLinesPerRequest = 16;
/// Grading workers of the jfeedd child. It is driven by one client, so its
/// threads mostly take turns: the client waits for the daemon's HTTP
/// thread, which waits for the worker. With four workers and two clients
/// on a shared 4-vCPU VM, two CPU-bound processes running beside the
/// benchmark raised the p99 of a request by 76%; with one worker and one
/// client they moved it by under 1%.
constexpr int kServedWorkers = 1;
/// Requests a traced served run sends again to time the daemon's front end.
constexpr size_t kFrontEndProbes = 200;

// --- Small utilities ---------------------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// CPU seconds another process's live threads have run, summed from
/// /proc/<pid>/task/*/schedstat (nanoseconds, unlike the clock ticks of
/// /proc/<pid>/stat). The daemon's threads live as long as it does.
double ChildCpuSeconds(pid_t pid) {
  double ns = 0.0;
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::string stat = ReadFile(task.path().string() + "/schedstat");
    ns += std::strtod(stat.c_str(), nullptr);
  }
  return ns * 1e-9;
}

/// Peak resident set (VmHWM) of "self" or a pid, in MiB.
double PeakRssMiB(const std::string& proc) {
  std::string status = ReadFile("/proc/" + proc + "/status");
  size_t pos = status.find("VmHWM:");
  if (pos == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + pos + 6, nullptr) / 1024.0;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

struct Tail {
  double value = 0.0;
  double rank = 0.0;  ///< Percentile actually used, 0..1.
};

/// Nearest-rank percentile of ascending `sorted`. When fewer than ten
/// samples lie beyond p's rank, the highest rank with ten beyond it is used
/// instead, and reported in `rank`.
Tail Percentile(const std::vector<double>& sorted, double p) {
  Tail tail;
  if (sorted.empty()) return tail;
  size_t n = sorted.size();
  size_t index = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (index > 0) --index;
  if (n > 10 && index > n - 11) index = n - 11;
  tail.value = sorted[index];
  tail.rank = static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The timed window is cut into kRounds equal rounds, and every end-to-end
/// timing is reported as the median of its per-round values: one slow
/// stretch of a shared machine then moves a run's figures less than it
/// moves their mean. Rounds are time slices of the closed loop; on the
/// served workload each round sends its own seeded schedule.
constexpr int kRounds = 5;

/// End-to-end figures of one round.
struct RoundFigures {
  double subs_per_s = 0.0;
  Tail p50;
  Tail p99;
  double cpu_ms_per_sub = 0.0;
  double rss_mib = 0.0;
  size_t samples = 0;
};

/// Latency percentiles of one round's samples (sorted here).
void SetLatencies(std::vector<double> latencies_ms, RoundFigures* round) {
  std::sort(latencies_ms.begin(), latencies_ms.end());
  round->p50 = Percentile(latencies_ms, 0.50);
  round->p99 = Percentile(latencies_ms, 0.99);
  round->samples = latencies_ms.size();
}

/// Sums the samples of series `name` in Prometheus text exposition whose
/// label block contains `label` ("" matches every label set).
double SumSeries(const std::string& text, const std::string& name,
                 const std::string& label = "") {
  double sum = 0.0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t name_end = line.find_first_of("{ ");
    size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at < name_end ||
        line.compare(0, name_end, name) != 0) {
      continue;
    }
    if (!label.empty() &&
        line.substr(name_end, value_at - name_end).find(label) ==
            std::string::npos) {
      continue;
    }
    sum += std::strtod(line.c_str() + value_at + 1, nullptr);
  }
  return sum;
}

/// Pipeline stages as labelled in jfeed_stage_duration_us, with the layer
/// each one runs.
constexpr const char* kStages[] = {"parse", "epdg", "match", "functional"};
constexpr const char* kStageLayers[] = {"javalang", "pdg", "core",
                                        "testing+interp"};
constexpr int kStageCount = 4;

/// The program's own counters the per-layer attribution reads (DESIGN.md
/// §6 names), from one scrape.
struct SchedCounters {
  double grade_sum_us = 0.0;  ///< jfeed_grade_duration_us: admission->result.
  double grades = 0.0;
  /// jfeed_sched_busy_us_total: worker time from taking a job to
  /// publishing its result.
  double busy_us = 0.0;
  double stage_us[kStageCount] = {};  ///< jfeed_stage_duration_us per stage.
  double answered = 0.0;  ///< jfeed_cache_requests_total, any disposition.
  double served_from_cache = 0.0;  ///< ... disposition hit or dedup.

  static SchedCounters From(const std::string& text) {
    SchedCounters c;
    c.grade_sum_us = SumSeries(text, "jfeed_grade_duration_us_sum");
    c.grades = SumSeries(text, "jfeed_grade_duration_us_count");
    c.busy_us = SumSeries(text, "jfeed_sched_busy_us_total");
    for (int s = 0; s < kStageCount; ++s) {
      c.stage_us[s] =
          SumSeries(text, "jfeed_stage_duration_us_sum",
                    std::string("stage=\"") + kStages[s] + "\"");
    }
    c.answered = SumSeries(text, "jfeed_cache_requests_total");
    c.served_from_cache =
        SumSeries(text, "jfeed_cache_requests_total", "\"hit\"") +
        SumSeries(text, "jfeed_cache_requests_total", "\"dedup\"");
    return c;
  }

  /// Adds after - before to this.
  void AddDelta(const SchedCounters& after, const SchedCounters& before) {
    grade_sum_us += after.grade_sum_us - before.grade_sum_us;
    grades += after.grades - before.grades;
    busy_us += after.busy_us - before.busy_us;
    for (int s = 0; s < kStageCount; ++s) {
      stage_us[s] += after.stage_us[s] - before.stage_us[s];
    }
    answered += after.answered - before.answered;
    served_from_cache += after.served_from_cache - before.served_from_cache;
  }
};

void Print(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Comments and functional verdict, the part of the checked fields the
/// layer replay can reproduce without the pipeline.
std::string FeedbackFields(
    const std::vector<jfeed::core::FeedbackComment>& comments,
    const jfeed::testing::FunctionalVerdict* functional) {
  std::string out;
  for (const auto& comment : comments) {
    out += jfeed::core::FeedbackKindName(comment.kind);
    out += '\x1f';
    out += comment.message;
    out += '\x1e';
  }
  if (functional != nullptr) {
    out += functional->passed ? "P" : "F";
    out += std::to_string(functional->tests_run) + "/" +
           std::to_string(functional->tests_failed);
  }
  return out;
}

/// Sets the end-to-end metrics to the medians over `rounds`, printing every
/// round's figures with its sample count.
void ReportRounds(const std::vector<RoundFigures>& rounds, double setup_s,
                  const std::string& latency, RunReport* report) {
  std::vector<double> rate, p50, p99, cpu, rss;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const RoundFigures& f = rounds[r];
    rate.push_back(f.subs_per_s);
    p50.push_back(f.p50.value);
    p99.push_back(f.p99.value);
    cpu.push_back(f.cpu_ms_per_sub);
    rss.push_back(f.rss_mib);
    Print("round " + std::to_string(r + 1) + ": subs_per_s " +
          Fmt("%.3f", f.subs_per_s) + ", " + latency + " p50 " +
          Fmt("%.4f", f.p50.value) + " ms, p" + Fmt("%.2f", 100 * f.p99.rank) +
          " " + Fmt("%.4f", f.p99.value) + " ms over " +
          std::to_string(f.samples) + " samples, cpu_ms_per_sub " +
          Fmt("%.4f", f.cpu_ms_per_sub) + ", peak_rss_mb " +
          Fmt("%.2f", f.rss_mib));
  }
  report->metrics = {
      {"setup_s", setup_s, "s"},
      {"subs_per_s", Median(rate), "1/s"},
      {"latency_p50_ms", Median(p50), "ms"},
      {"latency_p99_ms", Median(p99), "ms"},
      {"cpu_ms_per_sub", Median(cpu), "ms"},
      {"peak_rss_mb", Median(rss), "MiB"},
  };
  Print("failed_share " +
        Fmt("%.6f", static_cast<double>(report->failed) /
                        static_cast<double>(report->attempted)) +
        " (" + std::to_string(report->failed) + " of " +
        std::to_string(report->attempted) + ")");
}

// --- Layer replay (traced runs) ----------------------------------------------

struct ReplayItem {
  const Assignment* assignment = nullptr;
  std::string source;
};

/// Totals over one layer replay. Times are summed microseconds; the five
/// counts are exact and repeat for a given seed.
struct LayerTotals {
  int64_t subs = 0;
  double parse_us = 0.0;
  double build_us = 0.0;
  double match_us = 0.0;
  double functional_us = 0.0;
  double grade_us = 0.0;
  int64_t nodes = 0;
  int64_t match_steps = 0;
  int64_t regex_checks = 0;
  int64_t timeouts = 0;
  int64_t steps_spent = 0;
  /// Submissions whose layer-by-layer feedback differs from Grade's.
  int64_t disagreements = 0;
};

/// Replays `items` one at a time through the layers' public functions —
/// java::Parse, pdg::BuildAllEpdgs, core::MatchSubmissionGraphs over the
/// prebuilt graphs, testing::RunSuiteGuarded with the service's guards —
/// and then through GradingPipeline::Grade, with a span around each call.
/// Memory is recycled per submission the way the pipeline recycles it.
LayerTotals ReplayLayers(const std::vector<ReplayItem>& items,
                         SpanRecorder* spans) {
  LayerTotals totals;
  const PipelineOptions service;  // The service's budgets and exec guards.
  std::map<const Assignment*, std::unique_ptr<GradingPipeline>> pipelines;
  std::map<const Assignment*, std::vector<std::string>> expected;
  for (const auto& item : items) {
    const Assignment* a = item.assignment;
    if (pipelines.count(a) > 0) continue;
    // Warm both paths outside the timed calls: reference oracle, regex
    // caches, recycled arenas.
    auto pipeline = std::make_unique<GradingPipeline>(*a);
    pipeline->Grade(a->Reference());
    pipelines.emplace(a, std::move(pipeline));
    jfeed::service::ReferenceOracle oracle;
    auto outputs = oracle.ExpectedOutputs(*a);
    expected[a] = outputs.ok() ? *outputs : std::vector<std::string>();
  }

  jfeed::pdg::EpdgMemory memory;
  jfeed::Arena scratch;
  for (size_t i = 0; i < items.size(); ++i) {
    const Assignment& a = *items[i].assignment;
    const std::string& source = items[i].source;
    const uint64_t sub = i + 1;
    const uint64_t root = spans->NewId();
    const auto replay_start = Clock::now();
    std::vector<jfeed::core::FeedbackComment> comments;
    jfeed::testing::FunctionalVerdict verdict;
    bool functional_ran = false;
    {
      memory.Reset();
      scratch.Reset();
      jfeed::java::AstArenaScope ast_scope(&memory.arena);
      auto t0 = Clock::now();
      auto unit = jfeed::java::Parse(source);
      auto t1 = Clock::now();
      spans->Add(spans->NewId(), "java::Parse", "javalang", root, sub, t0, t1,
                 0);
      totals.parse_us += Micros(t1 - t0);
      if (unit.ok()) {
        bool matched = false;
        t0 = Clock::now();
        auto graphs = jfeed::pdg::BuildAllEpdgs(*unit, &memory);
        t1 = Clock::now();
        spans->Add(spans->NewId(), "pdg::BuildAllEpdgs", "pdg", root, sub, t0,
                   t1, 0);
        totals.build_us += Micros(t1 - t0);
        if (graphs.ok()) {
          std::vector<jfeed::core::MethodGraphRef> refs;
          for (const auto& graph : *graphs) {
            totals.nodes += static_cast<int64_t>(graph.NodeCount());
            refs.push_back({&graph, nullptr});
          }
          jfeed::core::SubmissionMatchOptions match_options = service.match;
          match_options.epdg_memory = &memory;
          match_options.match.scratch_arena = &scratch;
          t0 = Clock::now();
          auto feedback =
              jfeed::core::MatchSubmissionGraphs(a.spec, refs, match_options);
          t1 = Clock::now();
          spans->Add(spans->NewId(), "core::MatchSubmissionGraphs", "core",
                     root, sub, t0, t1, 0);
          totals.match_us += Micros(t1 - t0);
          if (feedback.ok()) {
            totals.match_steps += feedback->match_stats.steps;
            totals.regex_checks += feedback->match_stats.regex_checks;
            matched = feedback->matched;
            comments = std::move(feedback->comments);
          }
        }
        if (matched) {
          // The exact guards GradingPipeline::Grade applies.
          jfeed::interp::ExecOptions exec = a.suite.exec_options;
          exec.max_heap_bytes = service.exec.max_heap_bytes;
          exec.max_output_bytes = service.exec.max_output_bytes;
          exec.deadline_ms = service.exec.deadline_ms;
          t0 = Clock::now();
          verdict = jfeed::testing::RunSuiteGuarded(
              *unit, a.suite, expected[&a], exec,
              service.budgets.functional_ms);
          t1 = Clock::now();
          spans->Add(spans->NewId(), "testing::RunSuiteGuarded", "testing",
                     root, sub, t0, t1, 0);
          totals.functional_us += Micros(t1 - t0);
          functional_ran = true;
          totals.timeouts += verdict.timeouts;
          // A step-budget kill drops its steps from interp_steps; charge
          // the budget it burned.
          totals.steps_spent +=
              verdict.interp_steps + verdict.timeouts * exec.max_steps;
        }
      }
    }
    spans->Add(root, "layer replay", "bench", 0, sub, replay_start,
               Clock::now(), 0);

    auto t0 = Clock::now();
    GradingOutcome outcome = pipelines[&a]->Grade(source);
    auto t1 = Clock::now();
    spans->Add(spans->NewId(), "GradingPipeline::Grade", "service", 0, sub, t0,
               t1, 0);
    totals.grade_us += Micros(t1 - t0);
    ++totals.subs;
    if (!outcome.degraded() &&
        FeedbackFields(comments, functional_ran ? &verdict : nullptr) !=
            FeedbackFields(outcome.feedback.comments,
                           outcome.functional_ran ? &outcome.functional
                                                  : nullptr)) {
      ++totals.disagreements;
    }
  }
  return totals;
}

/// Prints the exact counts of a replay as the last line (counts mode).
void ReportCounts(const LayerTotals& totals, RunReport* report) {
  report->attempted = totals.subs;
  report->metrics = {
      {"pdg.nodes", static_cast<double>(totals.nodes), "count"},
      {"core.match_steps", static_cast<double>(totals.match_steps), "count"},
      {"core.regex_checks", static_cast<double>(totals.regex_checks),
       "count"},
      {"testing.step_budget_timeouts", static_cast<double>(totals.timeouts),
       "count"},
      {"interp.steps_spent", static_cast<double>(totals.steps_spent),
       "count"},
  };
  report->correct = totals.disagreements == 0;
}

/// What the client saw in a traced run's window, for the attribution.
struct ClientView {
  bool served = false;
  /// Mean time of one call: Submit->Wait of a graded submission in
  /// process, POST /grade of kLinesPerRequest submissions when served.
  double client_us = 0.0;
  /// Served only: a POST /grade answered wholly from the result cache.
  double http_us = 0.0;
};

/// Turns a traced run into per-layer metrics, prints the self-time table
/// and writes the Chrome trace and the table under options.out_dir.
///
/// `sched` holds the program's counter deltas over the window. A graded
/// submission's admission->result time splits exactly into the four stage
/// timers, worker time outside them (unattributed) and the time before a
/// worker took it (sched); in process, Submit->Wait adds the hand-off.
void ReportLayers(const RunOptions& options, const LayerTotals& totals,
                  const ClientView& view, const SchedCounters& sched,
                  const SpanRecorder& spans, Clock::time_point epoch,
                  RunReport* report) {
  const double n = totals.subs > 0 ? static_cast<double>(totals.subs) : 1.0;
  const double parse = totals.parse_us / n;
  const double build = totals.build_us / n;
  const double match = totals.match_us / n;
  const double functional = totals.functional_us / n;
  const double grade = totals.grade_us / n;
  const double overhead = grade - (parse + build + match + functional);
  const double grades = sched.grades > 0 ? sched.grades : 1.0;
  double stages[kStageCount];
  double stage_sum = 0.0;
  for (int s = 0; s < kStageCount; ++s) {
    stages[s] = sched.stage_us[s] / grades;
    stage_sum += stages[s];
  }
  const double busy = sched.busy_us / grades;
  const double admission_to_result = sched.grade_sum_us / grades;
  const double unattributed = busy - stage_sum;
  const double queue = admission_to_result - busy;
  const double http =
      view.served ? view.http_us : view.client_us - admission_to_result;
  const double hit_ratio =
      sched.answered > 0 ? sched.served_from_cache / sched.answered : 0.0;
  const double steps_per_s =
      totals.functional_us > 0
          ? static_cast<double>(totals.steps_spent) /
                (totals.functional_us * 1e-6)
          : 0.0;

  report->metrics = {
      {"javalang.parse_us", parse, "us"},
      {"pdg.build_us", build, "us"},
      {"pdg.nodes", static_cast<double>(totals.nodes), "count"},
      {"core.match_us", match, "us"},
      {"core.match_steps", static_cast<double>(totals.match_steps), "count"},
      {"core.regex_checks", static_cast<double>(totals.regex_checks),
       "count"},
      {"testing.functional_us", functional, "us"},
      {"testing.step_budget_timeouts", static_cast<double>(totals.timeouts),
       "count"},
      {"interp.steps_spent", static_cast<double>(totals.steps_spent),
       "count"},
      {"interp.steps_per_s", steps_per_s, "1/s"},
      {"service.grade_us", grade, "us"},
      {"service.overhead_us", overhead, "us"},
      {"sched.queue_us", queue, "us"},
      {"sched.cache_hit_ratio", hit_ratio, "ratio"},
      {"obs.http_us", http, "us"},
      {"unattributed_us", unattributed, "us"},
  };

  std::string table;
  auto row = [&table](const std::string& layer, double us, double whole,
                      const std::string& from) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "  %-16s %11.1f %7.1f%%  %s\n",
                  layer.c_str(), us, whole != 0 ? 100.0 * us / whole : 0.0,
                  from.c_str());
    table += buf;
  };
  table += "layer self time per graded submission (" + options.workload +
           ", seed " + std::to_string(options.seed) + ", " +
           Fmt("%.0f", sched.grades) + " graded in the window, " +
           std::to_string(totals.subs) + " replayed)\n";
  table += "in the window, from the program's metrics, as shares of "
           "admission->result:\n";
  table += "  layer                 us/sub   share  measured as\n";
  for (int s = 0; s < kStageCount; ++s) {
    row(kStageLayers[s], stages[s], admission_to_result,
        std::string("jfeed_stage_duration_us{stage=\"") + kStages[s] + "\"}");
  }
  row("unattributed", unattributed, admission_to_result,
      "worker busy time outside the stage timers (jfeed_sched_busy_us_total)");
  row("sched", queue, admission_to_result,
      "admission->result minus worker busy time");
  row("admit->result", admission_to_result, admission_to_result,
      "jfeed_grade_duration_us");
  table += "client side, as shares of the client's call:\n";
  if (view.served) {
    row("obs", http, view.client_us,
        "POST /grade answered from the result cache, after the window");
    row("client", view.client_us, view.client_us,
        "POST /grade of " + std::to_string(kLinesPerRequest) +
            " submissions in the window");
  } else {
    row("obs", http, view.client_us,
        "Submit->Wait minus admission->result (no HTTP on this path)");
    row("client", view.client_us, view.client_us, "Submit->Wait");
  }
  table += "sequential replay, timed around each public call, as shares of "
           "Grade:\n";
  row("javalang", parse, grade, "java::Parse");
  row("pdg", build, grade, "pdg::BuildAllEpdgs");
  row("core", match, grade, "core::MatchSubmissionGraphs");
  row("testing+interp", functional, grade, "testing::RunSuiteGuarded");
  row("service", overhead, grade,
      "GradingPipeline::Grade minus the four calls above");
  row("grade", grade, grade, "GradingPipeline::Grade");
  table += "  replay feedback differing from Grade: " +
           std::to_string(totals.disagreements) + "\n";
  std::printf("%s", table.c_str());
  std::fflush(stdout);

  if (!options.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                       std::to_string(options.seed);
    std::ofstream(stem + ".trace.json") << spans.ChromeJson(epoch);
    std::ofstream(stem + ".layers.txt") << table;
    Print("wrote " + stem + ".trace.json (" + std::to_string(spans.size()) +
          " spans) and " + stem + ".layers.txt");
  }
}

// --- Output checks -----------------------------------------------------------

/// Grades `count` submissions cold on `threads` threads: each thread grades
/// one submission at a time through its own GradingPipeline per assignment,
/// with no result or method cache. `submission(i)` names item i;
/// `graded(i, source, outcome)` receives its outcome.
void GradeCold(
    size_t count, int threads,
    const std::function<std::pair<const Assignment*, std::string>(size_t)>&
        submission,
    const std::function<void(size_t, const std::string&,
                             const GradingOutcome&)>& graded) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    std::map<const Assignment*, std::unique_ptr<GradingPipeline>> pipelines;
    for (size_t i; (i = next.fetch_add(1)) < count;) {
      auto [assignment, source] = submission(i);
      auto& pipeline = pipelines[assignment];
      if (pipeline == nullptr) {
        pipeline = std::make_unique<GradingPipeline>(*assignment);
      }
      graded(i, source, pipeline->Grade(source));
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
}

struct CheckItem {
  const Assignment* assignment = nullptr;
  uint64_t digest = 0;  ///< Fnv1a(CheckedFields) the cold grade must equal.
  size_t ref = 0;       ///< Caller's handle to regenerate the source.
  /// Fnv1a of the source the digest was taken from, when that is known
  /// separately (pinned items); 0 otherwise.
  uint64_t source_digest = 0;
};

/// Grades every item cold and counts outcomes whose checked fields differ
/// from the item's digest, printing the first few. `against` names where
/// the digests came from.
int64_t ColdCheck(const std::vector<CheckItem>& items,
                  const std::function<std::string(const CheckItem&)>& source_of,
                  int threads, const std::string& against) {
  std::atomic<int64_t> mismatches{0};
  std::mutex print_mu;
  auto report = [&](const CheckItem& item, const std::string& what) {
    if (mismatches.fetch_add(1) >= 3) return;
    std::lock_guard<std::mutex> lock(print_mu);
    Print("MISMATCH (" + against + ") " + item.assignment->id + " #" +
          std::to_string(item.ref) + ": " + what);
  };
  GradeCold(
      items.size(), threads,
      [&](size_t i) {
        return std::make_pair(items[i].assignment, source_of(items[i]));
      },
      [&](size_t i, const std::string& source, const GradingOutcome& outcome) {
        const CheckItem& item = items[i];
        if (item.source_digest != 0 && Fnv1a(source) != item.source_digest) {
          report(item, "the generator no longer renders the pinned source");
          return;
        }
        std::string expected = CheckedFields(outcome);
        if (Fnv1a(expected) != item.digest) {
          report(item, "cold grade " + expected + " has digest " +
                           Hex(Fnv1a(expected)) + ", expected " +
                           Hex(item.digest));
        }
      });
  return mismatches.load();
}

struct PoolItem {
  uint32_t tenant = 0;
  uint64_t index = 0;  ///< Error-model search-space index.
};

/// `count` distinct non-reference indexes of one error model, stratified
/// per choice site: each site walks a fresh seeded permutation of its
/// variants, so every variant of every site appears equally often in any
/// stretch of the sequence. Which variants a run grades is what decides how
/// many step-budget timeouts it pays for, so this keeps the work mix — not
/// just the submission count — the same from seed to seed.
std::vector<uint64_t> StratifiedIndexes(
    const jfeed::synth::SubmissionTemplate& generator, size_t count,
    jfeed::testing::XorShiftRng* rng) {
  const auto& sites = generator.sites();
  std::vector<std::vector<size_t>> perms(sites.size());
  std::vector<size_t> pos(sites.size(), 0);
  auto shuffle = [&](size_t s) {
    auto& perm = perms[s];
    perm.resize(sites[s].variants.size());
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng->Below(i)]);
    }
  };
  for (size_t s = 0; s < sites.size(); ++s) shuffle(s);

  std::vector<uint64_t> out;
  std::unordered_set<uint64_t> seen = {0};  // 0 is the reference solution.
  std::vector<size_t> choice(sites.size());
  for (size_t attempts = 0; out.size() < count && attempts < 8 * count + 64;
       ++attempts) {
    for (size_t s = 0; s < sites.size(); ++s) {
      choice[s] = perms[s][pos[s]];
      if (++pos[s] == perms[s].size()) {
        shuffle(s);
        pos[s] = 0;
      }
    }
    uint64_t index = jfeed::testing::EncodeChoice(generator, choice);
    if (seen.insert(index).second) out.push_back(index);
  }
  return out;
}

/// The seeded regrade corpus: tenants interleaved round-robin.
std::vector<PoolItem> BuildPool(const std::vector<const Assignment*>& tenants,
                                uint64_t seed, size_t count) {
  size_t each = (count + tenants.size() - 1) / tenants.size();
  std::vector<std::vector<uint64_t>> per_tenant;
  for (size_t t = 0; t < tenants.size(); ++t) {
    jfeed::testing::XorShiftRng rng(SplitMix(seed * 0x100 + t));
    per_tenant.push_back(StratifiedIndexes(tenants[t]->generator, each, &rng));
  }
  std::vector<PoolItem> pool;
  for (size_t k = 0; k < each; ++k) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      if (k < per_tenant[t].size()) {
        pool.push_back({static_cast<uint32_t>(t), per_tenant[t][k]});
      }
    }
  }
  return pool;
}

std::vector<const Assignment*> Tenants(const WorkloadSpec& spec) {
  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  std::vector<const Assignment*> tenants;
  for (const auto& id : spec.tenants) tenants.push_back(&kb.assignment(id));
  return tenants;
}

/// One line of the pinned-outcomes file.
struct PinnedLine {
  const Assignment* assignment = nullptr;
  uint64_t index = 0;
  uint64_t source_digest = 0;
  uint64_t outcome_digest = 0;
};

/// Grades the workload's pinned sample (options.pins_path) cold and counts
/// outcomes that differ from the pinned digests. The digests were written
/// once by --write-pins, so a deterministic change to grading that flips a
/// verdict or a comment fails here even though it moves the scheduled and
/// the cold side of ColdCheck alike. Returns -1 with *error set when the
/// file cannot be used.
int64_t CheckPinned(const RunOptions& options, std::string* error) {
  std::ifstream in(options.pins_path);
  if (!in) {
    *error = "cannot read pinned outcomes '" + options.pins_path + "'";
    return -1;
  }
  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  const auto& ids = kb.assignment_ids();
  std::vector<PinnedLine> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, assignment;
    PinnedLine pin;
    fields >> workload >> assignment >> pin.index >> std::hex >>
        pin.source_digest >> pin.outcome_digest;
    if (!fields ||
        std::find(ids.begin(), ids.end(), assignment) == ids.end()) {
      *error = "malformed pinned outcome line: " + line;
      return -1;
    }
    if (workload != options.workload) continue;
    pin.assignment = &kb.assignment(assignment);
    pins.push_back(pin);
  }
  if (pins.empty()) {
    *error = "no pinned outcomes for " + options.workload + " in '" +
             options.pins_path + "'";
    return -1;
  }
  std::vector<CheckItem> items;
  for (size_t i = 0; i < pins.size(); ++i) {
    items.push_back(
        {pins[i].assignment, pins[i].outcome_digest, i, pins[i].source_digest});
  }
  const int64_t mismatches = ColdCheck(
      items,
      [&](const CheckItem& item) {
        return item.assignment->generator.Generate(pins[item.ref].index);
      },
      options.jobs, "pinned");
  Print("pinned: " + std::to_string(pins.size() - mismatches) + "/" +
        std::to_string(pins.size()) +
        " cold grades of the pinned sample equal their pinned outcomes");
  return mismatches;
}

/// Runs both output checks: `cold` outcomes received in the window against
/// a cold grade, and the pinned sample. Sets report->correct.
bool CheckOutputs(const RunOptions& options, const std::vector<CheckItem>& cold,
                  const std::function<std::string(const CheckItem&)>& source_of,
                  const std::string& what, RunReport* report,
                  std::string* error) {
  const int64_t mismatches =
      ColdCheck(cold, source_of, options.jobs, "window vs cold");
  Print("check: " + std::to_string(cold.size() - mismatches) + "/" +
        std::to_string(cold.size()) + " " + what +
        " equal a cold sequential GradingPipeline::Grade");
  const int64_t pinned = CheckPinned(options, error);
  if (pinned < 0) return false;
  report->correct = mismatches == 0 && pinned == 0;
  return true;
}

// --- Regrade workloads -------------------------------------------------------

bool RunRegrade(const RunOptions& options, const WorkloadSpec& spec,
                RunReport* report, std::string* error) {
  SpanRecorder spans(options.trace);
  const auto epoch = Clock::now();

  // Set-up part 1: the knowledge base.
  const std::vector<const Assignment*> tenants = Tenants(spec);
  const auto kb_loaded = Clock::now();

  // Inputs (not set-up): the seeded pool, as search-space indexes; sources
  // are rendered when submitted and again when checked. The replay set is
  // the pool's first replay_limit entries.
  std::vector<PoolItem> pool;
  auto source_of = [&](const PoolItem& item) {
    return tenants[item.tenant]->generator.Generate(item.index);
  };
  auto replay_set = [&] {
    std::vector<ReplayItem> replay;
    for (size_t k = 0; k < pool.size() && k < spec.replay_limit; ++k) {
      replay.push_back({tenants[pool[k].tenant], source_of(pool[k])});
    }
    return replay;
  };
  auto build_pool = [&](size_t count) {
    pool = BuildPool(tenants, options.seed, count);
    if (pool.empty()) *error = "empty submission pool";
    return !pool.empty();
  };
  if (options.counts_only) {
    if (!build_pool(spec.replay_limit)) return false;
    ReportCounts(ReplayLayers(replay_set(), &spans), report);
    return true;
  }

  // Set-up part 2: scheduler start and one warm grade per tenant (reference
  // oracle, regex caches). The traced run turns the program's metrics on
  // first: the workers read the switch when they start.
  const auto scheduler_start = Clock::now();
  if (options.trace) jfeed::obs::Registry::Global().set_enabled(true);
  jfeed::sched::ShardedSchedulerOptions scheduler_options;
  scheduler_options.jobs = options.jobs;
  jfeed::sched::ShardedScheduler scheduler(tenants, PipelineOptions(),
                                           scheduler_options);
  for (const Assignment* tenant : tenants) {
    uint64_t ticket = 0;
    jfeed::Status status =
        scheduler.Submit(tenant->id, tenant->Reference(), "warm", &ticket);
    if (!status.ok()) {
      *error = "warm-up submission refused: " + status.ToString();
      return false;
    }
    scheduler.Wait(ticket);
  }
  const double setup_s =
      Seconds(kb_loaded - epoch) + Seconds(Clock::now() - scheduler_start);
  if (options.setup_only) {
    report->attempted = 1;
    report->metrics = {{"setup_s", setup_s, "s"}};
    return true;
  }
  if (!build_pool(spec.per_second * static_cast<size_t>(options.seconds))) {
    return false;
  }

  // The timed window: a closed loop of 2 x jobs clients, each submitting
  // its next submission when the previous one is answered. That keeps one
  // job queued behind every worker while staying far below every shard's
  // admission quota, so nothing is shed.
  struct Record {
    bool submitted = false;
    bool done = false;
    bool internal_fault = false;
    Clock::time_point submitted_at;
    Clock::time_point done_at;
    uint64_t digest = 0;
  };
  std::vector<Record> records(pool.size());
  const int clients = 2 * options.jobs;
  if (static_cast<size_t>(clients) > scheduler.shard_queue_capacity()) {
    *error = "client window exceeds the shard quota";
    return false;
  }
  const std::string before =
      options.trace ? jfeed::obs::Registry::Global().Render() : "";
  std::atomic<size_t> next{0};
  const auto round_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(options.seconds) /
                                    kRounds));
  std::vector<double> cpu_at = {ProcessCpuSeconds()};
  const auto start = Clock::now();
  const auto deadline = start + kRounds * round_length;
  auto client = [&](uint32_t tid) {
    for (;;) {
      size_t k = next.fetch_add(1);
      if (k >= pool.size()) return;
      const Assignment& tenant = *tenants[pool[k].tenant];
      std::string source = source_of(pool[k]);
      // Nothing is submitted at or after the deadline, so every
      // submission belongs to a round.
      auto t0 = Clock::now();
      if (t0 >= deadline) return;
      Record& record = records[k];
      const uint64_t root = spans.NewId();
      uint64_t ticket = 0;
      jfeed::Status status = scheduler.Submit(tenant.id, source, "", &ticket);
      auto t1 = Clock::now();
      record.submitted = true;
      record.submitted_at = t0;
      spans.Add(spans.NewId(), "ShardedScheduler::Submit", "sched", root,
                k + 1, t0, t1, tid);
      if (!status.ok()) continue;
      GradingOutcome outcome = scheduler.Wait(ticket);
      auto t2 = Clock::now();
      spans.Add(spans.NewId(), "ShardedScheduler::Wait", "sched", root, k + 1,
                t1, t2, tid);
      spans.Add(root, "submission", "bench", 0, k + 1, t0, t2, tid);
      record.done = true;
      record.done_at = t2;
      record.internal_fault =
          outcome.failure == jfeed::service::FailureClass::kInternalFault;
      record.digest = Fnv1a(CheckedFields(outcome));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(client, static_cast<uint32_t>(c + 1));
  }
  // Process CPU at every round boundary.
  for (int r = 1; r <= kRounds; ++r) {
    std::this_thread::sleep_until(start + r * round_length);
    cpu_at.push_back(ProcessCpuSeconds());
  }
  for (auto& thread : threads) thread.join();
  const auto end = Clock::now();
  const double rss_mib = PeakRssMiB("self");
  SchedCounters sched_delta;
  if (options.trace) {
    sched_delta.AddDelta(
        SchedCounters::From(jfeed::obs::Registry::Global().Render()),
        SchedCounters::From(before));
  }

  // Tally and check, outside the window. A submission belongs to the round
  // it completed in (a failed one to the round it was sent in); the few
  // answered after the deadline count for the check only.
  std::vector<std::vector<double>> round_latencies(kRounds);
  std::vector<CheckItem> checks;
  double latency_sum_us = 0.0;
  auto round_of = [&](Clock::time_point t) {
    return static_cast<size_t>((t - start) / round_length);
  };
  for (size_t k = 0; k < records.size(); ++k) {
    const Record& r = records[k];
    if (!r.submitted) continue;
    ++report->attempted;
    if (!r.done || r.internal_fault) {
      ++report->failed;
      round_latencies[round_of(r.submitted_at)].push_back(
          static_cast<double>(kRequestDeadlineMs));
      if (!r.done) continue;
    } else if (r.done_at < deadline) {
      round_latencies[round_of(r.done_at)].push_back(
          Micros(r.done_at - r.submitted_at) / 1000.0);
    }
    latency_sum_us += Micros(r.done_at - r.submitted_at);
    checks.push_back({tenants[pool[k].tenant], r.digest, k});
  }
  const double done = static_cast<double>(checks.size());
  Print("window: " + std::to_string(checks.size()) + " graded of " +
        std::to_string(report->attempted) + " submitted by " +
        std::to_string(clients) + " closed-loop clients on " +
        std::to_string(options.jobs) + " workers in " +
        Fmt("%.3f", Seconds(end - start)) + " s");
  if (!CheckOutputs(
          options, checks,
          [&](const CheckItem& item) { return source_of(pool[item.ref]); },
          "outcomes", report, error)) {
    return false;
  }
  if (done == 0) {
    *error = "no submission was graded in the window";
    return false;
  }
  // Time per submission, which run.py compares between a traced and an
  // untraced run of one seed to report the tracing overhead.
  Print("e2e_ms " + Fmt("%.6f", Seconds(end - start) * 1000.0 / done));

  if (options.trace) {
    LayerTotals totals = ReplayLayers(replay_set(), &spans);
    ClientView view;
    view.client_us = latency_sum_us / done;
    ReportLayers(options, totals, view, sched_delta, spans, epoch, report);
    return true;
  }
  const double round_s = Seconds(round_length);
  std::vector<RoundFigures> rounds(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    const double graded = static_cast<double>(round_latencies[r].size());
    rounds[r].subs_per_s = graded / round_s;
    rounds[r].cpu_ms_per_sub =
        graded > 0 ? (cpu_at[r + 1] - cpu_at[r]) * 1000.0 / graded : 0.0;
    rounds[r].rss_mib = rss_mib;
    SetLatencies(std::move(round_latencies[r]), &rounds[r]);
  }
  ReportRounds(rounds, setup_s, "Submit->Wait", report);
  return true;
}

// --- Served workload ---------------------------------------------------------

/// A jfeedd child process. The destructor stops it (SIGTERM drain, SIGKILL
/// after ten seconds) and reaps it; the child also gets SIGKILL from the
/// kernel if this process dies first.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { Stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool Start(const std::string& path, int jobs, std::string* error) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    const std::string jobs_text = std::to_string(jobs);
    pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      *error = "fork failed";
      return false;
    }
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(path.c_str(), "jfeedd", "--all", "--jobs", jobs_text.c_str(),
            "--port", "0", static_cast<char*>(nullptr));
      _exit(127);
    }
    pid_ = pid;
    close(fds[1]);
    out_fd_ = fds[0];
    // The banner line names the ephemeral port.
    std::string banner;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (banner.find('\n') == std::string::npos) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
      pollfd p{out_fd_, POLLIN, 0};
      if (left <= 0 || poll(&p, 1, static_cast<int>(left)) <= 0) {
        *error = "jfeedd printed no banner within 10 s";
        return false;
      }
      char buf[512];
      ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        *error = "jfeedd exited during start-up (" + path + ")";
        return false;
      }
      banner.append(buf, static_cast<size_t>(n));
    }
    size_t at = banner.find("127.0.0.1:");
    if (at == std::string::npos) {
      *error = "unexpected jfeedd banner: " + banner;
      return false;
    }
    port_ = static_cast<uint16_t>(std::atoi(banner.c_str() + at + 10));
    // Ready means the first /healthz 200.
    while (Clock::now() < deadline) {
      auto reply = jfeed::fleet::Fetch(port_, "GET", "/healthz", "", 1000);
      if (reply.ok() && reply->status == 200) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    *error = "jfeedd never answered /healthz 200";
    return false;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 1000 && !reaped; ++i) {
        reaped = waitpid(pid_, &status, WNOHANG) == pid_;
        if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!reaped) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    // Closed only after the child is gone: its drain message must not meet
    // a closed pipe.
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

std::string GradeLine(const std::string& id, const std::string& assignment,
                      const std::string& source) {
  std::string line =
      "{\"id\":\"" + id + "\",\"assignment\":\"" + assignment +
      "\",\"source\":\"";
  for (char c : source) {
    switch (c) {
      case '"': line += "\\\""; break;
      case '\\': line += "\\\\"; break;
      case '\n': line += "\\n"; break;
      case '\r': line += "\\r"; break;
      case '\t': line += "\\t"; break;
      default: line.push_back(c);
    }
  }
  line += "\"}\n";
  return line;
}

bool RunServed(const RunOptions& options, const WorkloadSpec& spec,
               RunReport* report, std::string* error) {
  SpanRecorder spans(options.trace);
  const auto epoch = Clock::now();
  const std::vector<const Assignment*> tenants = Tenants(spec);
  std::vector<jfeed::testing::TrafficAssignment> traffic_tenants;
  std::map<std::string, const Assignment*> by_id;
  for (const Assignment* tenant : tenants) {
    traffic_tenants.push_back({tenant->id, &tenant->generator});
    by_id[tenant->id] = tenant;
  }

  // Inputs: one deadline-spike schedule per round (resubmission chains,
  // exact re-sends, comment-only edits), each from its own seed derived
  // from the run's, sent in schedule order without its timing. A round's
  // schedule holds per_second requests per second of round, a ceiling above
  // the closed loop's rate. The first sight of an (assignment, token
  // stream) is what the daemon grades; the warm-up grades the references,
  // so those start out seen.
  const double round_s = static_cast<double>(options.seconds) / kRounds;
  auto schedule_of = [&](int r) {
    jfeed::testing::TrafficOptions traffic;
    traffic.seed = SplitMix(options.seed * kRounds + r);
    traffic.submissions = static_cast<size_t>(
        static_cast<double>(spec.per_second) * round_s);
    return jfeed::testing::BuildDeadlineSpikeSchedule(traffic_tenants,
                                                      traffic);
  };
  std::set<std::pair<std::string, uint64_t>> seen;
  for (const Assignment* tenant : tenants) {
    seen.insert(
        {tenant->id, jfeed::sched::TokenFingerprint(tenant->Reference())});
  }
  auto first_sight = [&seen](const jfeed::testing::TrafficEvent& event) {
    return seen
        .insert({event.assignment,
                 jfeed::sched::TokenFingerprint(event.source)})
        .second;
  };
  // The replay set: the first replay_limit first sights of round 1.
  auto replay_set =
      [&](const std::vector<jfeed::testing::TrafficEvent>& round1) {
    std::vector<ReplayItem> replay;
    auto replay_seen = seen;
    for (const auto& event : round1) {
      if (replay.size() >= spec.replay_limit) break;
      if (replay_seen
              .insert({event.assignment,
                       jfeed::sched::TokenFingerprint(event.source)})
              .second) {
        replay.push_back({by_id[event.assignment], event.source});
      }
    }
    return replay;
  };
  if (options.counts_only) {
    ReportCounts(ReplayLayers(replay_set(schedule_of(0)), &spans), report);
    return true;
  }
  std::string warm_body;
  for (const Assignment* tenant : tenants) {
    warm_body += GradeLine("warm-" + tenant->id, tenant->id,
                           tenant->Reference());
  }

  // Set-up: daemon spawn until the first /healthz 200, then one warm grade
  // per tenant.
  const auto setup_start = Clock::now();
  DaemonProcess daemon;
  if (!daemon.Start(options.jfeedd_path, kServedWorkers, error)) return false;
  auto warm = jfeed::fleet::Fetch(daemon.port(), "POST", "/grade", warm_body,
                                  kRequestDeadlineMs);
  if (!warm.ok() || warm->status != 200) {
    *error = "warm-up POST /grade failed";
    return false;
  }
  const double setup_s = Seconds(Clock::now() - setup_start);
  if (options.setup_only) {
    report->attempted = 1;
    report->metrics = {{"setup_s", setup_s, "s"}};
    return true;
  }
  std::vector<jfeed::testing::TrafficEvent> schedule = schedule_of(0);
  const std::vector<ReplayItem> replay = replay_set(schedule);

  // One POST /grade of kLinesPerRequest consecutive schedule entries; each
  // reply line is reduced to its checked-fields digest as soon as it
  // arrives.
  struct Line {
    bool answered = false;  ///< A graded outcome line came back.
    bool internal_fault = false;
    double stage_ms = 0.0;  ///< Sum of the line's stage_timings.
    uint64_t digest = 0;
  };
  struct Request {
    bool sent = false;
    Clock::time_point at;
    Clock::time_point replied;
    std::vector<Line> lines;
  };
  auto send = [&daemon](const std::vector<jfeed::testing::TrafficEvent>& events,
                        size_t first, Request* request) {
    std::string body;
    for (size_t k = first; k < first + kLinesPerRequest; ++k) {
      body += GradeLine(events[k].id, events[k].assignment, events[k].source);
    }
    request->sent = true;
    auto reply = jfeed::fleet::Fetch(daemon.port(), "POST", "/grade", body,
                                     kRequestDeadlineMs);
    request->replied = Clock::now();
    std::string_view rest;
    if (reply.ok() && reply->status == 200) rest = reply->body;
    request->lines.resize(kLinesPerRequest);
    for (Line& line : request->lines) {
      size_t eol = rest.find('\n');
      ReplyLine parsed = ParseReplyLine(rest.substr(0, eol));
      rest = eol == std::string_view::npos ? std::string_view()
                                           : rest.substr(eol + 1);
      line.answered = parsed.graded;
      line.internal_fault = parsed.failure_class == "internal_fault";
      line.stage_ms = parsed.stage_ms;
      line.digest = Fnv1a(parsed.checked);
    }
  };
  auto scrape = [&daemon]() -> std::string {
    auto reply =
        jfeed::fleet::Fetch(daemon.port(), "GET", "/metrics", "", 10'000);
    return reply.ok() ? reply->body : "";
  };

  const auto round_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(round_s));
  SchedCounters sched_total;
  std::vector<RoundFigures> figures(kRounds);
  std::vector<CheckItem> checks;
  // Distinct (assignment, exact source) pairs answered, and the checked
  // digests each came back with: the check grades each source once.
  std::vector<std::string> distinct_sources;
  std::map<std::pair<std::string, uint64_t>, size_t> distinct_index;
  std::set<std::pair<size_t, uint64_t>> distinct_digests;
  auto check_later = [&](const jfeed::testing::TrafficEvent& event,
                         uint64_t digest) {
    auto key = std::make_pair(event.assignment, Fnv1a(event.source));
    auto [it, added] = distinct_index.emplace(key, distinct_sources.size());
    if (added) distinct_sources.push_back(event.source);
    if (distinct_digests.insert({it->second, digest}).second) {
      checks.push_back({by_id[event.assignment], digest, it->second});
    }
  };
  std::string residual_lines;
  double request_us_sum = 0.0;
  int64_t requests_answered = 0;
  int64_t answered_total = 0;
  int64_t first_sights = 0;
  double window_s = 0.0;
  std::vector<Request> requests;
  for (int r = 0; r < kRounds; ++r) {
    if (r > 0) schedule = schedule_of(r);
    requests.assign(schedule.size() / kLinesPerRequest, Request());
    const SchedCounters before = SchedCounters::From(scrape());
    const double cpu_before = ChildCpuSeconds(daemon.pid());

    // The round's window: a closed loop of one client with one connection
    // per request, sending the next request of the schedule when its
    // previous one is answered.
    const auto start = Clock::now();
    const auto deadline = start + round_length;
    for (size_t q = 0; q < requests.size(); ++q) {
      Request& request = requests[q];
      request.at = Clock::now();
      if (request.at >= deadline) break;
      send(schedule, q * kLinesPerRequest, &request);
      const uint64_t sub = static_cast<uint64_t>(r) * 1'000'000 + q + 1;
      const uint64_t root = spans.NewId();
      spans.Add(spans.NewId(), "fleet::Fetch POST /grade", "obs", root, sub,
                request.at, request.replied, 1);
      spans.Add(root, "request", "bench", 0, sub, request.at, request.replied,
                1);
    }
    const double cpu_s = ChildCpuSeconds(daemon.pid()) - cpu_before;
    const double rss_mib = PeakRssMiB(std::to_string(daemon.pid()));
    sched_total.AddDelta(SchedCounters::From(scrape()), before);

    // Tally the round, outside its window. A request counts for the
    // round's rate and latency when it was answered before the deadline;
    // one with a failed line enters the latency at the client deadline.
    std::vector<double> latencies_ms;
    size_t answered = 0;
    size_t answered_in_window = 0;
    bool ran_out = true;
    Clock::time_point last = start;
    for (size_t q = 0; q < requests.size(); ++q) {
      const Request& request = requests[q];
      if (!request.sent) {
        ran_out = false;
        continue;
      }
      last = std::max(last, request.replied);
      const bool in_window = request.replied < deadline;
      const double client_us = Micros(request.replied - request.at);
      request_us_sum += client_us;
      ++requests_answered;
      double first_sight_stage_us = 0.0;
      int firsts = 0;
      bool failed = false;
      for (size_t k = 0; k < kLinesPerRequest; ++k) {
        const auto& event = schedule[q * kLinesPerRequest + k];
        const Line& line = request.lines[k];
        ++report->attempted;
        const bool first = first_sight(event);
        if (!line.answered || line.internal_fault) {
          ++report->failed;
          failed = true;
          continue;
        }
        ++answered;
        if (in_window) ++answered_in_window;
        check_later(event, line.digest);
        if (first) {
          first_sight_stage_us += line.stage_ms * 1000.0;
          ++firsts;
        }
      }
      if (in_window) {
        latencies_ms.push_back(failed ? static_cast<double>(kRequestDeadlineMs)
                                      : client_us / 1000.0);
      }
      first_sights += firsts;
      // Served residual: what the client waited beyond the stage timings
      // of the lines the daemon graded for this request. Lines of one
      // request are graded in parallel, so it can be negative.
      residual_lines += "{\"round\":" + std::to_string(r + 1) +
                        ",\"request\":" + std::to_string(q) +
                        ",\"first_sights\":" + std::to_string(firsts) +
                        ",\"client_us\":" + Fmt("%.1f", client_us) +
                        ",\"stages_us\":" + Fmt("%.1f", first_sight_stage_us) +
                        ",\"residual_us\":" +
                        Fmt("%.1f", client_us - first_sight_stage_us) + "}\n";
    }
    answered_total += static_cast<int64_t>(answered);
    // A round that sent its whole schedule measured until its last reply.
    const double span_s =
        ran_out ? Seconds(last - start) : Seconds(round_length);
    if (ran_out) {
      Print("round " + std::to_string(r + 1) + " sent its whole schedule of " +
            std::to_string(schedule.size()) + " submissions in " +
            Fmt("%.3f", span_s) + " s");
    }
    window_s += Seconds(last - start);
    RoundFigures& f = figures[r];
    f.subs_per_s =
        static_cast<double>(answered_in_window) / std::max(span_s, 1e-9);
    f.cpu_ms_per_sub =
        answered > 0 ? cpu_s * 1000.0 / static_cast<double>(answered) : 0.0;
    f.rss_mib = rss_mib;
    SetLatencies(std::move(latencies_ms), &f);
  }

  // Traced runs time the HTTP server and the result-cache reads on their
  // own: after the window, the first requests of the last round are sent
  // again one at a time, twice each. The second copy is answered wholly
  // from the result cache, so its time is the daemon's front end alone.
  double front_end_us = 0.0;
  if (options.trace) {
    std::vector<double> samples;
    for (size_t q = 0; q < requests.size() && q < kFrontEndProbes; ++q) {
      if (!requests[q].sent) break;
      for (int copy = 0; copy < 2; ++copy) {
        Request again;
        again.at = Clock::now();
        send(schedule, q * kLinesPerRequest, &again);
        for (size_t k = 0; k < kLinesPerRequest; ++k) {
          if (again.lines[k].answered) {
            check_later(schedule[q * kLinesPerRequest + k],
                        again.lines[k].digest);
          }
        }
        if (copy == 1) samples.push_back(Micros(again.replied - again.at));
      }
    }
    front_end_us = Median(samples);
    Print("front end: median " + Fmt("%.1f", front_end_us) +
          " us per POST /grade of " + std::to_string(kLinesPerRequest) +
          " submissions answered from the result cache, over " +
          std::to_string(samples.size()) + " requests");
  }
  schedule.clear();
  requests.clear();
  daemon.Stop();

  Print("window: " + std::to_string(answered_total) + " submissions in " +
        std::to_string(requests_answered) + " requests of " +
        std::to_string(kLinesPerRequest) + " answered, " +
        std::to_string(report->attempted) + " sent, by one closed-loop "
        "client to " + std::to_string(kServedWorkers) + " worker(s) over " +
        std::to_string(kRounds) + " rounds of " + Fmt("%.3f", round_s) +
        " s; " + std::to_string(first_sights) + " first sights, " +
        Fmt("%.0f", sched_total.served_from_cache) +
        " answered from the result cache");
  if (!CheckOutputs(
          options, checks,
          [&](const CheckItem& item) { return distinct_sources[item.ref]; },
          "distinct (source, reply) pairs, result-cache replies included,",
          report, error)) {
    return false;
  }
  if (answered_total == 0) {
    *error = "no request was answered";
    return false;
  }
  // Time per answered submission, which run.py compares between a traced
  // and an untraced run of one seed to report the tracing overhead.
  Print("e2e_ms " +
        Fmt("%.6f", window_s * 1000.0 / static_cast<double>(answered_total)));

  if (options.trace) {
    LayerTotals totals = ReplayLayers(replay, &spans);
    ClientView view;
    view.served = true;
    view.client_us = request_us_sum / static_cast<double>(requests_answered);
    view.http_us = front_end_us;
    ReportLayers(options, totals, view, sched_total, spans, epoch, report);
    if (!options.out_dir.empty()) {
      std::string path = options.out_dir + "/" + options.workload + "-seed" +
                         std::to_string(options.seed) + ".residuals.ndjson";
      std::ofstream(path) << residual_lines;
      Print("wrote " + path);
    }
    return true;
  }
  ReportRounds(figures, setup_s, "POST /grade", report);
  return true;
}

}  // namespace

bool RunWorkload(const RunOptions& options, RunReport* report,
                 std::string* error) {
  for (const auto& spec : Specs()) {
    if (spec.name != options.workload) continue;
    return spec.path == Path::kInProcess
               ? RunRegrade(options, spec, report, error)
               : RunServed(options, spec, report, error);
  }
  *error = "unknown workload '" + options.workload + "'";
  return false;
}

bool WritePinned(const std::string& path, int threads, std::string* error) {
  std::string text =
      "# Pinned outcomes of the jfeed benchmark: for each workload a fixed\n"
      "# sample of error-model submissions (drawn with one seed whatever\n"
      "# --seed is) with the FNV-1a digests of its source and of the checked\n"
      "# fields of its cold GradingPipeline::Grade outcome. Every run grades\n"
      "# its workload's sample and fails on any difference. Rewrite only\n"
      "# when a change is meant to alter feedback:\n"
      "#   <build dir>/jbench --write-pins jbench/pinned_outcomes.txt\n"
      "# workload assignment error-model-index source-digest outcome-digest\n";
  for (const auto& spec : Specs()) {
    const std::vector<const Assignment*> tenants = Tenants(spec);
    const std::vector<PoolItem> sample =
        BuildPool(tenants, kPinSeed, spec.pinned);
    std::vector<std::string> lines(sample.size());
    GradeCold(
        sample.size(), threads,
        [&](size_t i) {
          const Assignment* tenant = tenants[sample[i].tenant];
          return std::make_pair(tenant,
                                tenant->generator.Generate(sample[i].index));
        },
        [&](size_t i, const std::string& source,
            const GradingOutcome& outcome) {
          lines[i] = spec.name + " " + tenants[sample[i].tenant]->id + " " +
                     std::to_string(sample[i].index) + " " +
                     Hex(Fnv1a(source)) + " " +
                     Hex(Fnv1a(CheckedFields(outcome))) + "\n";
        });
    for (const auto& line : lines) text += line;
  }
  std::ofstream out(path);
  out << text;
  if (!out) {
    *error = "cannot write '" + path + "'";
    return false;
  }
  return true;
}

}  // namespace jbench
