// jbench: one run of one jfeed benchmark workload.
//
//   jbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          --jfeedd <path> --pins <file> [--out <dir>] [--setup-only]
//          [--counts]
//   jbench --write-pins <file>
//
// Prints human-readable lines while it runs, then one JSON object as the
// last line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones; --setup-only reports setup_s alone and --counts the five exact
// replay counts. Every other run also grades the workload's pinned sample
// from --pins. --write-pins grades every workload's pinned sample and
// writes the file. run.py builds this binary and wraps it.
//
// Exit codes: 0 result printed and every outcome checked equal; 1 result
// printed but some outcome differed from a cold grade or from its pinned
// outcome; 2 no result (usage, daemon start-up, unreadable pins).

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: jbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --jfeedd <path> --pins <file> [--out <dir>] "
               "[--setup-only] [--counts]\n"
               "       jbench --write-pins <file>\n");
  return 2;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  jbench::RunOptions options;
  std::string write_pins;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (arg == "--counts") {
      options.counts_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--jfeedd") {
      options.jfeedd_path = value;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else if (arg == "--pins") {
      options.pins_path = value;
    } else if (arg == "--write-pins") {
      write_pins = value;
    } else {
      return Usage();
    }
  }
  // Regrade workers and cold-check threads number at most nproc, and at
  // most the four the workloads were sized for.
  options.jobs = std::min(AvailableCpus(), 4);
  std::string error;
  if (!write_pins.empty()) {
    if (!jbench::WritePinned(write_pins, options.jobs, &error)) {
      std::fprintf(stderr, "jbench: %s\n", error.c_str());
      return 2;
    }
    return 0;
  }
  if (options.workload.empty() || options.seconds < 1) return Usage();
  if (options.pins_path.empty() && !options.setup_only &&
      !options.counts_only) {
    return Usage();
  }

  jbench::RunReport report;
  if (!jbench::RunWorkload(options, &report, &error)) {
    std::fprintf(stderr, "jbench: %s\n", error.c_str());
    return 2;
  }
  std::string line = "{\"correct\":";
  line += report.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(report.attempted);
  line += ",\"failed\":" + std::to_string(report.failed);
  line += ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& metric = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (i > 0) line += ",";
    line += "\"" + metric.name + "\":{\"value\":" + value + ",\"unit\":\"" +
            metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return report.correct ? 0 : 1;
}
