#!/usr/bin/env python3
"""Runs one workload of the jfeed benchmark and prints its result.

    python3 jbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a jfeed checkout. The first run configures and
builds the benchmark (jbench/CMakeLists.txt: the repository's libraries, the
jfeedd daemon and the benchmark program in jbench/cpp/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only check
that the build is current.

Untraced runs (--trace 0) report the end-to-end metrics. setup_s is the
median of several set-ups: SETUP_PROBES separate start-ups plus the run's
own. Traced runs (--trace 1) run the workload untraced and then traced with
the same seed, report the per-layer metrics of the traced run plus
trace.overhead_pct, the traced run's end-to-end time per submission over the
untraced one's, and write a Chrome trace, a per-layer self-time table and
(served-resubmit) per-request residuals under .bench_out/.

Every run checks each outcome it received against a cold grade of the same
source, and grades the workload's pinned sample (jbench/pinned_outcomes.txt)
against the outcomes pinned there.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every outcome matched,
1 on a mismatch or when no result could be produced (nothing is printed as a
result then).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pinned_outcomes.txt")
WORKLOADS = ("regrade-esc", "regrade-rit", "served-resubmit")
SETUP_PROBES = 10


def jbench_timeout_s(seconds):
    """How long one jbench process may take: its window, then the checks
    (about as long again) and a traced run's layer replay."""
    return 3 * seconds + 60


class BenchError(Exception):
    pass


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds jbench and jfeedd; build output goes to
    standard error so standard output stays the result."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "jbench", "jfeedd"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return os.path.join(out, "jbench"), os.path.join(out, "jfeedd")


def jbench(binary, jfeedd, args, extra):
    """Runs jbench once; returns (human-readable lines, result dict)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--jfeedd", jfeedd,
           "--pins", PINS] + extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=jbench_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        raise BenchError("jbench timed out: " + " ".join(extra))
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError("jbench failed (exit %d): %s" %
                         (done.returncode, done.stderr.strip()))
    return lines[:-1], json.loads(lines[-1])


def e2e_ms(lines):
    for line in lines:
        if line.startswith("e2e_ms "):
            return float(line.split()[1])
    raise BenchError("jbench printed no e2e_ms line")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        binary, jfeedd = build()
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_PROBES):
                _, probe = jbench(binary, jfeedd, args, ["--setup-only"])
                setups.append(probe["metrics"]["setup_s"]["value"])
            lines, result = jbench(binary, jfeedd, args, ["--trace", "0"])
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
            lines.append("setup_s samples: " +
                         " ".join("%.6f" % s for s in setups))
        else:
            plain_lines, plain = jbench(binary, jfeedd, args, ["--trace", "0"])
            lines, result = jbench(
                binary, jfeedd, args,
                ["--trace", "1", "--out", os.path.join(ROOT, ".bench_out")])
            base = e2e_ms(plain_lines)
            traced = e2e_ms(lines)
            result["metrics"]["trace.overhead_pct"] = {
                "value": 100.0 * (traced - base) / base, "unit": "%"}
            lines.append("tracing overhead: e2e %.6f ms traced vs %.6f ms "
                         "untraced" % (traced, base))
            result["correct"] = result["correct"] and plain["correct"]
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("run.py: %s" % error, file=sys.stderr)
        return 1

    for line in lines:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
