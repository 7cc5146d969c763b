#ifndef JBENCH_WORKLOADS_H_
#define JBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace jbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// Traced run: record spans around every public call the benchmark
  /// makes, replay the workload's distinct sources layer by layer, and
  /// report per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Set up (and tear down) only, reporting setup_s.
  bool setup_only = false;
  /// Replay only, printing the exact per-layer counts.
  bool counts_only = false;
  int jobs = 4;              ///< Regrade workers, check threads (<= nproc).
  std::string jfeedd_path;   ///< Daemon binary for the served workload.
  std::string out_dir;       ///< Where traced runs write their files.
  std::string pins_path;     ///< The pinned-outcomes file every run checks.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload, printing human-readable lines as it goes. Returns
/// false with *error set when the run could not produce a result at all
/// (unknown workload, daemon failed to boot, unreadable pinned outcomes).
bool RunWorkload(const RunOptions& options, RunReport* report,
                 std::string* error);

/// Grades every workload's pinned sample cold on `threads` threads and
/// writes the pinned-outcomes file to `path`.
bool WritePinned(const std::string& path, int threads, std::string* error);

}  // namespace jbench

#endif  // JBENCH_WORKLOADS_H_
