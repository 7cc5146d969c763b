// Sec. IV: the subgraph-matching core is worst-case O(n^m) but fast in
// practice on intro-sized graphs. This binary has two halves:
//
//   1. The engine report (always runs): the production matcher ("indexed")
//      against the pre-index reference backtracker under tests/testutil
//      ("legacy") over every knowledge-base assignment plus the loops
//      ablation workload, reporting backtracking steps, template checks,
//      pruning/memo counters, wall time and index build time. An
//      assignment's indexed column is Algorithm 2 on its reference
//      submission; its legacy column sums the reference over every (spec
//      pattern, method graph) pair of that submission, the cells
//      Algorithm 2 evaluates. `--json=PATH` additionally writes the
//      machine-readable BENCH_matching.json that CI diffs against the
//      checked-in baseline (step counts are deterministic; wall times are
//      informational only). The report fails (exit 1) when the two
//      matchers return different embeddings for any pattern, so perf
//      numbers can never be quoted from a semantically wrong matcher.
//
//   2. google-benchmark microbenches sweeping the EPDG size, the pattern
//      portfolio and the injection enumeration (skipped with
//      `--skip-microbench`; extra args go to the benchmark library).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "alloc_probe.h"
#include "core/pattern_matcher.h"
#include "core/submission_matcher.h"
#include "javalang/ast.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "obs/trace.h"
#include "pdg/epdg.h"
#include "pdg/match_index.h"
#include "support/arena.h"
#include "tests/testutil/legacy_matcher.h"

namespace {

namespace core = jfeed::core;
namespace java = jfeed::java;
namespace pdg = jfeed::pdg;

using Clock = std::chrono::steady_clock;

/// Builds a program with `loops` copies of the odd-accumulation loop, so
/// the EPDG grows linearly and the pattern has many candidate regions.
std::string ProgramWithLoops(int loops) {
  std::string source = "void f(int[] a) {\n";
  for (int l = 0; l < loops; ++l) {
    std::string acc = "s" + std::to_string(l);
    std::string idx = "i" + std::to_string(l);
    source += "  int " + acc + " = 0;\n";
    source += "  for (int " + idx + " = 0; " + idx + " < a.length; " + idx +
              "++)\n";
    source += "    if (" + idx + " % 2 == 1)\n";
    source += "      " + acc + " += a[" + idx + "];\n";
    source += "  System.out.println(" + acc + ");\n";
  }
  source += "}\n";
  return source;
}

pdg::Epdg BuildGraph(const std::string& source) {
  auto unit = java::Parse(source);
  auto graph = pdg::BuildEpdg(unit->methods[0]);
  return std::move(*graph);
}

// ---------------------------------------------------------------------------
// Engine report.

struct EngineRun {
  core::MatchStats stats;
  double wall_us = 0.0;
};

struct AssignmentReport {
  std::string id;
  EngineRun legacy;
  EngineRun indexed;
  double index_build_us = 0.0;
  /// Heap allocations of one steady-state pooled hot-path run (parse +
  /// EPDG + index + match on recycled arenas) — deterministic, CI-gated.
  int64_t allocs_per_submission = 0;
};

/// Counts the heap allocations of one parse→EPDG→index→match run in the
/// configuration the grading pipeline uses in steady state: pooled
/// EpdgMemory and scratch arena, reset (not destroyed) between runs, with
/// AST nodes bump-allocated. The first rep warms the arena chunks and any
/// lazy pattern state; the last rep's count is the steady-state number.
int64_t MeasurePooledAllocs(const core::AssignmentSpec& spec,
                            const std::string& source) {
  pdg::EpdgMemory memory;
  jfeed::Arena scratch;
  core::SubmissionMatchOptions options;
  options.epdg_memory = &memory;
  options.match.scratch_arena = &scratch;
  constexpr int kReps = 3;
  int64_t allocs = 0;
  for (int r = 0; r < kReps; ++r) {
    memory.Reset();
    scratch.Reset();
    java::AstArenaScope ast_scope(&memory.arena);
    int64_t before = jfeed::bench::AllocCount();
    auto unit = java::Parse(source);
    if (!unit.ok()) return -1;
    auto feedback = core::MatchSubmission(spec, *unit, options);
    benchmark::DoNotOptimize(feedback);
    allocs = jfeed::bench::AllocCount() - before;
  }
  return allocs;
}

struct AblationReport {
  std::string workload;
  int64_t legacy_steps = 0;
  int64_t indexed_steps = 0;
  int64_t candidates_pruned = 0;
};

struct EngineReport {
  std::vector<AssignmentReport> assignments;
  AblationReport ablation;
  bool equivalent = true;
};

/// True when the production matcher returns exactly the reference's
/// canonical embeddings (same order, ι, γ and incorrect marks).
bool MatchersAgree(const core::Pattern& pattern, const pdg::Epdg& graph) {
  auto same = [](const core::Embedding& a, const core::Embedding& b) {
    return a.iota == b.iota && a.gamma == b.gamma &&
           a.incorrect_nodes == b.incorrect_nodes;
  };
  auto reference = core::testutil::LegacyMatchPattern(pattern, graph);
  auto production = core::MatchPattern(pattern, graph);
  return std::equal(reference.begin(), reference.end(), production.begin(),
                    production.end(), same);
}

/// Grades `unit` in production, returning the (deterministic) match stats
/// and the best wall time over `reps` runs.
EngineRun TimeSubmission(const core::AssignmentSpec& spec,
                         const java::CompilationUnit& unit, int reps) {
  EngineRun run;
  for (int r = 0; r < reps; ++r) {
    Clock::time_point t0 = Clock::now();
    auto feedback = core::MatchSubmission(spec, unit);
    double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (r == 0 || us < run.wall_us) run.wall_us = us;
    if (feedback.ok()) run.stats = feedback->match_stats;
  }
  return run;
}

/// Runs the reference over every (spec pattern, graph) pair — the cells
/// Algorithm 2 evaluates — returning the summed stats and the best wall
/// time over `reps` runs. Each call gets its own stats block, so max_steps
/// stays a per-pattern bound as in Algorithm 2.
EngineRun TimeReference(const core::AssignmentSpec& spec,
                        const std::vector<pdg::Epdg>& graphs, int reps) {
  EngineRun run;
  for (int r = 0; r < reps; ++r) {
    core::MatchStats total;
    Clock::time_point t0 = Clock::now();
    for (const auto& method : spec.methods) {
      for (const auto& use : method.patterns) {
        if (use.pattern == nullptr) continue;
        for (const auto& graph : graphs) {
          core::MatchStats call;
          core::testutil::LegacyMatchPattern(*use.pattern, graph, {}, &call);
          total.Accumulate(call);
        }
      }
    }
    double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (r == 0 || us < run.wall_us) run.wall_us = us;
    run.stats = total;
  }
  return run;
}

EngineReport RunEngineReport() {
  EngineReport report;
  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  constexpr int kReps = 5;

  std::printf("match engine report: legacy (reference backtracker) vs. "
              "indexed (production), %zu assignments (reference "
              "submissions, best of %d runs)\n\n",
              kb.assignment_ids().size(), kReps);
  std::printf("  %-18s %10s %10s %8s %9s %8s %10s %10s %9s %7s\n",
              "assignment", "steps", "steps", "step", "pruned", "memo",
              "wall us", "wall us", "index us", "allocs");
  std::printf("  %-18s %10s %10s %8s %9s %8s %10s %10s %9s %7s\n", "",
              "legacy", "indexed", "ratio", "", "hits", "legacy", "indexed",
              "build", "pooled");

  for (const auto& id : kb.assignment_ids()) {
    const auto& assignment = kb.assignment(id);
    auto unit = java::Parse(assignment.Reference());
    if (!unit.ok()) continue;
    auto graphs = pdg::BuildAllEpdgs(*unit);
    if (!graphs.ok()) continue;

    AssignmentReport ar;
    ar.id = id;
    ar.legacy = TimeReference(assignment.spec, *graphs, kReps);
    ar.indexed = TimeSubmission(assignment.spec, *unit, kReps);
    for (const auto& method : assignment.spec.methods) {
      for (const auto& use : method.patterns) {
        if (use.pattern == nullptr) continue;
        for (const auto& graph : *graphs) {
          if (!MatchersAgree(*use.pattern, graph)) {
            std::fprintf(stderr, "FAIL: matchers disagree on %s pattern %s\n",
                         id.c_str(), use.pattern->id.c_str());
            report.equivalent = false;
          }
        }
      }
    }

    // Index build cost, amortized over enough reps to be measurable.
    {
      constexpr int kIndexReps = 200;
      Clock::time_point t0 = Clock::now();
      for (int r = 0; r < kIndexReps; ++r) {
        for (const auto& g : *graphs) {
          pdg::MatchIndex index(g);
          benchmark::DoNotOptimize(index);
        }
      }
      ar.index_build_us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count() /
          kIndexReps;
    }

    ar.allocs_per_submission =
        MeasurePooledAllocs(assignment.spec, assignment.Reference());

    double ratio = ar.indexed.stats.steps > 0
                       ? static_cast<double>(ar.legacy.stats.steps) /
                             static_cast<double>(ar.indexed.stats.steps)
                       : 0.0;
    std::printf("  %-18s %10lld %10lld %7.2fx %9lld %8lld %10.0f %10.0f "
                "%9.1f %7lld\n",
                id.c_str(), static_cast<long long>(ar.legacy.stats.steps),
                static_cast<long long>(ar.indexed.stats.steps), ratio,
                static_cast<long long>(ar.indexed.stats.candidates_pruned),
                static_cast<long long>(ar.indexed.stats.memo_hits),
                ar.legacy.wall_us, ar.indexed.wall_us, ar.index_build_us,
                static_cast<long long>(ar.allocs_per_submission));
    report.assignments.push_back(std::move(ar));
  }

  // Ablation workload: many near-identical candidate regions, where the
  // signature pruning has to pay for itself. Sums the four portfolio
  // patterns the ordering ablation uses.
  {
    constexpr int kLoops = 12;
    report.ablation.workload =
        "loops-" + std::to_string(kLoops) + " x 4 portfolio patterns";
    pdg::Epdg graph = BuildGraph(ProgramWithLoops(kLoops));
    pdg::MatchIndex index(graph);
    for (const char* pid : {"odd-positions", "even-positions",
                            "cond-accum-add", "assign-print"}) {
      const core::Pattern& pattern = jfeed::kb::PatternLibrary::Get().at(pid);
      core::MatchStats legacy_stats, indexed_stats;
      core::testutil::LegacyMatchPattern(pattern, graph, {}, &legacy_stats);
      core::MatchPattern(pattern, graph, index, {}, &indexed_stats);
      if (!MatchersAgree(pattern, graph)) {
        std::fprintf(stderr,
                     "FAIL: matchers disagree on ablation pattern %s\n", pid);
        report.equivalent = false;
      }
      report.ablation.legacy_steps += legacy_stats.steps;
      report.ablation.indexed_steps += indexed_stats.steps;
      report.ablation.candidates_pruned += indexed_stats.candidates_pruned;
    }
    double ratio =
        report.ablation.indexed_steps > 0
            ? static_cast<double>(report.ablation.legacy_steps) /
                  static_cast<double>(report.ablation.indexed_steps)
            : 0.0;
    std::printf("\n  ablation workload (%s): legacy %lld steps, indexed %lld "
                "steps — %.2fx reduction, %lld candidates pruned\n",
                report.ablation.workload.c_str(),
                static_cast<long long>(report.ablation.legacy_steps),
                static_cast<long long>(report.ablation.indexed_steps), ratio,
                static_cast<long long>(report.ablation.candidates_pruned));
  }

  int64_t total_legacy = 0, total_indexed = 0, total_allocs = 0;
  for (const auto& ar : report.assignments) {
    total_legacy += ar.legacy.stats.steps;
    total_indexed += ar.indexed.stats.steps;
    total_allocs += ar.allocs_per_submission;
  }
  std::printf("  totals: legacy %lld steps, indexed %lld steps (%.2fx), "
              "%lld pooled allocs/submission\n",
              static_cast<long long>(total_legacy),
              static_cast<long long>(total_indexed),
              total_indexed > 0 ? static_cast<double>(total_legacy) /
                                      static_cast<double>(total_indexed)
                                : 0.0,
              static_cast<long long>(total_allocs));
  std::printf("  equivalence: %s\n\n",
              report.equivalent ? "legacy == indexed on all workloads"
                                : "FAILED");
  return report;
}

void AppendEngineRun(const char* name, const EngineRun& run,
                     std::string* out) {
  *out += std::string("\"") + name + "\": {";
  *out += "\"steps\": " + std::to_string(run.stats.steps) + ", ";
  *out += "\"regex_checks\": " + std::to_string(run.stats.regex_checks) +
          ", ";
  *out += "\"candidates_pruned\": " +
          std::to_string(run.stats.candidates_pruned) + ", ";
  *out += "\"memo_hits\": " + std::to_string(run.stats.memo_hits) + ", ";
  *out += "\"wall_us\": " + std::to_string(run.wall_us) + "}";
}

/// Writes the machine-readable report. Step/check counts are deterministic
/// and CI-diffable; wall_us and index_build_us vary with the host and are
/// informational.
bool WriteJson(const std::string& path, const EngineReport& report) {
  std::string out = "{\n  \"schema\": \"jfeed-bench-matching-v1\",\n";
  int64_t total_legacy = 0, total_indexed = 0, total_allocs = 0;
  out += "  \"assignments\": [\n";
  for (size_t i = 0; i < report.assignments.size(); ++i) {
    const AssignmentReport& ar = report.assignments[i];
    total_legacy += ar.legacy.stats.steps;
    total_indexed += ar.indexed.stats.steps;
    total_allocs += ar.allocs_per_submission;
    out += "    {\"id\": \"" + ar.id + "\", ";
    AppendEngineRun("legacy", ar.legacy, &out);
    out += ", ";
    AppendEngineRun("indexed", ar.indexed, &out);
    out += ", \"index_build_us\": " + std::to_string(ar.index_build_us);
    out += ", \"allocs_per_submission\": " +
           std::to_string(ar.allocs_per_submission) + "}";
    out += i + 1 < report.assignments.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"ablation\": {\"workload\": \"" + report.ablation.workload +
         "\", \"legacy_steps\": " +
         std::to_string(report.ablation.legacy_steps) +
         ", \"indexed_steps\": " +
         std::to_string(report.ablation.indexed_steps) +
         ", \"candidates_pruned\": " +
         std::to_string(report.ablation.candidates_pruned) + "},\n";
  out += "  \"totals\": {\"legacy_steps\": " + std::to_string(total_legacy) +
         ", \"indexed_steps\": " + std::to_string(total_indexed) +
         ", \"allocs_per_submission\": " + std::to_string(total_allocs) +
         "},\n";
  out += std::string("  \"equivalent\": ") +
         (report.equivalent ? "true" : "false") + "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(out.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// google-benchmark microbenches.

void BM_PatternMatchingGraphSize(benchmark::State& state) {
  pdg::Epdg graph = BuildGraph(ProgramWithLoops(
      static_cast<int>(state.range(0))));
  const core::Pattern& pattern =
      jfeed::kb::PatternLibrary::Get().at("odd-positions");
  for (auto _ : state) {
    auto embeddings = core::MatchPattern(pattern, graph);
    benchmark::DoNotOptimize(embeddings);
  }
  state.counters["nodes"] = static_cast<double>(graph.NodeCount());
  state.counters["edges"] = static_cast<double>(graph.EdgeCount());
}
BENCHMARK(BM_PatternMatchingGraphSize)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Arg(16);

void BM_PatternMatchingSharedIndex(benchmark::State& state) {
  // The index amortization case Algorithm 2 hits: one graph, the whole
  // pattern portfolio, index built once outside the loop.
  pdg::Epdg graph = BuildGraph(ProgramWithLoops(
      static_cast<int>(state.range(0))));
  pdg::MatchIndex index(graph);
  const auto& library = jfeed::kb::PatternLibrary::Get();
  for (auto _ : state) {
    size_t total = 0;
    for (const auto& id : library.ids()) {
      total += core::MatchPattern(library.at(id), graph, index, {}).size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PatternMatchingSharedIndex)->Arg(4)->Arg(16);

void BM_PatternMatchingAllPatterns(benchmark::State& state) {
  // Every library pattern over the Assignment 1 reference graph.
  const auto& assignment =
      jfeed::kb::KnowledgeBase::Get().assignment("assignment1");
  pdg::Epdg graph = BuildGraph(assignment.Reference());
  const auto& library = jfeed::kb::PatternLibrary::Get();
  for (auto _ : state) {
    size_t total = 0;
    for (const auto& id : library.ids()) {
      total += core::MatchPattern(library.at(id), graph).size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PatternMatchingAllPatterns);

void BM_SubmissionMatching(benchmark::State& state) {
  // Full Algorithm 2 (EPDG construction + patterns + constraints) per
  // knowledge-base assignment reference — the paper's per-submission M.
  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  const auto& id = kb.assignment_ids()[state.range(0)];
  const auto& assignment = kb.assignment(id);
  auto unit = java::Parse(assignment.Reference());
  for (auto _ : state) {
    auto feedback = core::MatchSubmission(assignment.spec, *unit);
    benchmark::DoNotOptimize(feedback);
  }
  state.SetLabel(id);
}
BENCHMARK(BM_SubmissionMatching)->DenseRange(0, 11);

void BM_VariableCombinations(benchmark::State& state) {
  // Cost of the injection enumeration (Algorithm 1, line 19) as variable
  // counts grow.
  std::set<std::string> from, to;
  for (int i = 0; i < state.range(0); ++i) {
    from.insert("p" + std::to_string(i));
  }
  for (int i = 0; i < state.range(0) + 2; ++i) {
    to.insert("v" + std::to_string(i));
  }
  for (auto _ : state) {
    auto injections = core::EnumerateInjections(from, to);
    benchmark::DoNotOptimize(injections);
  }
}
BENCHMARK(BM_VariableCombinations)->DenseRange(1, 5);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  bool skip_microbench = false;
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_path = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--skip-microbench") == 0) {
      skip_microbench = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }

  // Tracing covers the engine report (the production matcher's corpus
  // sweep), giving a per-submission span breakdown to open in Perfetto.
  if (!trace_path.empty()) jfeed::obs::Tracer::Global().Enable();
  EngineReport report = RunEngineReport();
  if (!trace_path.empty()) {
    jfeed::obs::Tracer::Global().Disable();
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fputs(jfeed::obs::Tracer::Global().ExportChromeJson().c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", trace_path.c_str());
  }
  if (!json_path.empty() && !WriteJson(json_path, report)) return 1;
  if (!report.equivalent) return 1;

  if (!skip_microbench) {
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
