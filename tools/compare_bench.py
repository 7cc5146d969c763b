#!/usr/bin/env python3
"""CI regression gate for the deterministic benchmark reports.

Four report schemas are understood, dispatched on the baseline's "schema"
field:

  jfeed-bench-matching-v1   (bench_matching) — the indexed match engine's
      backtracking step counts and the pooled hot path's heap allocations
      per submission; current may exceed baseline by at most --threshold
      (wall times are runner-dependent and ignored).
  jfeed-bench-table1-v1     (bench_table1) — the Table I coverage counters
      (space, sampled, evaluated, parse failures, discrepancies per
      assignment); deterministic for a fixed --samples, so they must match
      the baseline exactly. Wall times are reported for trend only.
  jfeed-bench-loadgen-v1    (jfeed_loadgen) — the deadline-spike load
      replay against a multi-tenant jfeedd. Hard gates: transport errors
      must be zero, every scheduled submission sent, and the overall shed
      rate may not exceed the baseline's by more than --shed-tolerance.
      p99 latency is trend-gated: it may exceed the baseline by at most
      --p99-threshold (generous by default — shared CI runners jitter).
      Per-assignment breakdowns are printed for trend only.
  jfeed-bench-resubmission-v1 (bench_resubmission) — incremental grading
      over seeded resubmission chains. The current run must report
      cache-on/cache-off feedback equivalence; the method counters
      (methods_total/reused/regraded, partial_hits) are deterministic for
      a fixed config and must match the baseline exactly; the partial-hit
      rate must clear an absolute floor (--partial-hit-floor); and the
      wall-time speedup and allocation ratio may regress by at most
      --threshold versus the baseline. Per-assignment lines are printed
      for trend only.

A malformed or schema-drifted input fails with a one-line diagnostic naming
the file and the missing or wrongly-typed key (exit 1), never a traceback
— a valid-JSON baseline carrying "100" where 100 belongs is drift too: CI
log readers
should see "what drifted", not a stack dump. In particular, when a baseline
exists but the candidate JSON does not carry the baseline's benchmark block
(wrong or missing schema), the gate fails with one line naming both files
and both schemas. `--update-baseline` copies the current report over the
baseline file instead of comparing — the documented workflow after an
intended pattern/KB change. A baseline that does not exist yet (a schema
whose block was never checked in, e.g. a brand-new bench) is created,
parent directories included, rather than failing; overwriting an existing
baseline of a *different* schema is refused, since that is nearly always a
wrong-file mistake.

Usage: compare_bench.py BASELINE CURRENT [--threshold 0.10]
       compare_bench.py BASELINE CURRENT --update-baseline
"""

import argparse
import json
import os
import shutil
import sys

KNOWN_SCHEMAS = ("jfeed-bench-matching-v1", "jfeed-bench-table1-v1",
                 "jfeed-bench-loadgen-v1", "jfeed-bench-resubmission-v1")


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as err:
        sys.exit(f"FAIL: cannot read {path}: {err.strerror}")
    except json.JSONDecodeError as err:
        sys.exit(f"FAIL: {path} is not valid JSON: {err}")
    if data.get("schema") not in KNOWN_SCHEMAS:
        sys.exit(f"{path}: unexpected schema {data.get('schema')!r} "
                 f"(known: {', '.join(KNOWN_SCHEMAS)})")
    return data


def lookup(data, path, dotted):
    """Walks `dotted` ("totals.indexed_steps") through nested dicts; exits
    with a clear message naming the file and key when a level is missing —
    a baseline generated before a schema addition must fail readably."""
    node = data
    walked = []
    for key in dotted.split("."):
        walked.append(key)
        if not isinstance(node, dict) or key not in node:
            sys.exit(
                f"FAIL: {path} is missing key '{'.'.join(walked)}' "
                f"(schema drift — regenerate the file, or run with "
                f"--update-baseline after an intended change)")
        node = node[key]
    return node


def lookup_number(data, path, dotted):
    """lookup() plus a type gate: a baseline hand-edited (or produced by a
    half-migrated bench tool) can carry the right keys with string values,
    and `"100" * 1.1` is a traceback, not a diagnostic."""
    value = lookup(data, path, dotted)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        sys.exit(f"FAIL: {path} key '{dotted}' should be a number but is "
                 f"{type(value).__name__} {value!r} (schema drift — "
                 f"regenerate the file)")
    return value


def lookup_list(data, path, dotted):
    value = lookup(data, path, dotted)
    if not isinstance(value, list):
        sys.exit(f"FAIL: {path} key '{dotted}' should be a list but is "
                 f"{type(value).__name__} (schema drift — regenerate the "
                 f"file)")
    return value


def assignments_by_id(data, path):
    by_id = {}
    for a in lookup_list(data, path, "assignments"):
        if not isinstance(a, dict) or "id" not in a:
            sys.exit(f"FAIL: {path} has an assignment entry without an "
                     f"'id' (schema drift — regenerate the file)")
        by_id[a["id"]] = a
    return by_id


def compare_matching(baseline, current, args):
    """Step-count and allocation gate: current may exceed baseline by
    --threshold. Both counters are deterministic — backtracking steps by
    construction, allocations because the pooled hot path always performs
    the same sequence of operator-new calls for a given submission."""
    if not current.get("equivalent", False):
        sys.exit("FAIL: current run reports engine inequivalence")

    failures = []

    def check(label, base_count, cur_count):
        limit = base_count * (1.0 + args.threshold)
        status = "ok"
        if cur_count > limit:
            status = f"REGRESSION (limit {limit:.0f})"
            failures.append(label)
        print(f"{label:56s} baseline {base_count:8d}  "
              f"current {cur_count:8d}  {status}")

    for dotted in ("totals.indexed_steps", "ablation.indexed_steps",
                   "totals.allocs_per_submission"):
        check(dotted,
              lookup_number(baseline, args.baseline, dotted),
              lookup_number(current, args.current, dotted))

    base_by_id = assignments_by_id(baseline, args.baseline)
    for aid, a in assignments_by_id(current, args.current).items():
        b = base_by_id.get(aid)
        if b is None:
            print(f"{aid:56s} new assignment, no baseline — skipped")
            continue
        check(f"assignment {aid} indexed.steps",
              lookup_number(b, args.baseline, "indexed.steps"),
              lookup_number(a, args.current, "indexed.steps"))
        check(f"assignment {aid} allocs_per_submission",
              lookup_number(b, args.baseline, "allocs_per_submission"),
              lookup_number(a, args.current, "allocs_per_submission"))

    if failures:
        print(f"\nFAIL: step/allocation regression beyond "
              f"{args.threshold:.0%} in: " + ", ".join(failures))
        print("If the regression is intended (pattern/KB change), rerun "
              "with --update-baseline (or regenerate "
              "bench/baselines/BENCH_matching.json) and commit it.")
        return 1
    print("\nOK: no step or allocation regressions beyond "
          f"{args.threshold:.0%} of baseline")
    return 0


# Per-assignment Table I counters that are deterministic for a fixed
# --samples and must therefore match the baseline exactly. The step fields
# are part of the grading contract: a step-budget kill fails a test, so an
# interpreter change that moves a step can flip a verdict.
TABLE1_EXACT_FIELDS = ("space", "patterns", "constraints", "sampled",
                       "evaluated", "parse_failures", "discrepancies",
                       "interp_steps", "step_budget_timeouts")


def compare_table1(baseline, current, args):
    """Exact-equality gate over the deterministic Table I counters."""
    base_samples = lookup_number(baseline, args.baseline, "samples")
    cur_samples = lookup_number(current, args.current, "samples")
    if base_samples != cur_samples:
        sys.exit(f"FAIL: {args.current} was generated with --samples "
                 f"{cur_samples} but the baseline used {base_samples} — "
                 f"the coverage counters are not comparable; rerun "
                 f"bench_table1 with --samples {base_samples}")

    failures = []
    base_by_id = assignments_by_id(baseline, args.baseline)
    cur_by_id = assignments_by_id(current, args.current)
    for aid, b in base_by_id.items():
        a = cur_by_id.get(aid)
        if a is None:
            print(f"{aid:40s} MISSING from current report")
            failures.append(aid)
            continue
        diffs = []
        for field in TABLE1_EXACT_FIELDS:
            base_value = lookup(b, args.baseline, field)
            cur_value = lookup(a, args.current, field)
            if base_value != cur_value:
                diffs.append(f"{field} {base_value} -> {cur_value}")
        wall = a.get("wall_ms", 0.0)
        if isinstance(wall, bool) or not isinstance(wall, (int, float)):
            sys.exit(f"FAIL: {args.current} assignment '{aid}' key "
                     f"'wall_ms' should be a number but is "
                     f"{type(wall).__name__} {wall!r} (schema drift — "
                     f"regenerate the file)")
        if diffs:
            print(f"{aid:40s} DRIFT: {'; '.join(diffs)}")
            failures.append(aid)
        else:
            print(f"{aid:40s} ok  (wall {wall:.1f} ms, trend only)")
    for aid in cur_by_id:
        if aid not in base_by_id:
            print(f"{aid:40s} new assignment, no baseline — skipped")

    if failures:
        print(f"\nFAIL: Table I coverage drift in: {', '.join(failures)}")
        print("If the change is intended (pattern/KB/generator change), "
              "regenerate bench/baselines/BENCH_table1.json with "
              "--update-baseline and commit it.")
        return 1
    print("\nOK: Table I coverage counters match the baseline exactly")
    return 0


# Workload knobs that make two loadgen runs comparable: same traffic
# schedule (submissions, seed, spike shape) at the same replay speed.
LOADGEN_CONFIG_FIELDS = ("submissions", "seed", "idle_ms", "spike_ms",
                         "time_scale")


def compare_loadgen(baseline, current, args):
    """Load-replay gate: zero errors, full delivery, bounded shed rate,
    trend-gated p99 latency."""
    for field in LOADGEN_CONFIG_FIELDS:
        base_value = lookup_number(baseline, args.baseline,
                                   f"config.{field}")
        cur_value = lookup_number(current, args.current, f"config.{field}")
        if base_value != cur_value:
            sys.exit(f"FAIL: {args.current} was generated with --{field} "
                     f"{cur_value} but the baseline used {base_value} — "
                     f"the runs replay different workloads and are not "
                     f"comparable; rerun jfeed_loadgen to match")

    failures = []

    errors = lookup_number(current, args.current, "totals.errors")
    if errors != 0:
        print(f"{'totals.errors':40s} {errors} transport/HTTP errors "
              f"(must be 0)")
        failures.append("errors")

    base_sent = lookup_number(baseline, args.baseline, "totals.sent")
    cur_sent = lookup_number(current, args.current, "totals.sent")
    if cur_sent != base_sent:
        print(f"{'totals.sent':40s} baseline {base_sent}  current "
              f"{cur_sent}  INCOMPLETE REPLAY")
        failures.append("sent")

    base_shed_rate = lookup_number(baseline, args.baseline,
                                   "totals.shed_rate")
    cur_shed_rate = lookup_number(current, args.current, "totals.shed_rate")
    shed_limit = base_shed_rate + args.shed_tolerance
    status = "ok"
    if cur_shed_rate > shed_limit:
        status = f"REGRESSION (limit {shed_limit:.3f})"
        failures.append("shed_rate")
    print(f"{'totals.shed_rate':40s} baseline {base_shed_rate:8.3f}  "
          f"current {cur_shed_rate:8.3f}  {status}")

    base_p99 = lookup_number(baseline, args.baseline,
                             "totals.latency_us.p99")
    cur_p99 = lookup_number(current, args.current, "totals.latency_us.p99")
    p99_limit = base_p99 * (1.0 + args.p99_threshold)
    status = "ok"
    if cur_p99 > p99_limit:
        status = f"REGRESSION (limit {p99_limit:.0f}us)"
        failures.append("p99")
    print(f"{'totals.latency_us.p99':40s} baseline {base_p99:8.0f}  "
          f"current {cur_p99:8.0f}  {status}")

    # Per-assignment breakdowns: printed so a drift is attributable to one
    # tenant, but gated only in aggregate — per-tenant tails on a shared
    # runner are too noisy to block a merge on.
    base_by_id = assignments_by_id(baseline, args.baseline)
    for aid, a in assignments_by_id(current, args.current).items():
        cur_a_p99 = lookup_number(a, args.current, "latency_us.p99")
        cur_a_shed = lookup_number(a, args.current, "shed_rate")
        b = base_by_id.get(aid)
        if b is None:
            print(f"assignment {aid:29s} new assignment, no baseline — "
                  f"trend only")
            continue
        base_a_p99 = lookup_number(b, args.baseline, "latency_us.p99")
        base_a_shed = lookup_number(b, args.baseline, "shed_rate")
        print(f"assignment {aid:29s} p99 {base_a_p99:8.0f} -> "
              f"{cur_a_p99:8.0f}us  shed {base_a_shed:.3f} -> "
              f"{cur_a_shed:.3f}  (trend only)")

    if failures:
        print(f"\nFAIL: loadgen regression in: {', '.join(failures)} "
              f"(p99 threshold {args.p99_threshold:.0%}, shed tolerance "
              f"{args.shed_tolerance:+.3f})")
        print("If the change is intended (scheduler/admission change), "
              "regenerate bench/baselines/BENCH_loadgen.json with "
              "--update-baseline and commit it.")
        return 1
    print(f"\nOK: errors 0, replay complete, shed rate within "
          f"{args.shed_tolerance:+.3f} and p99 within "
          f"{args.p99_threshold:.0%} of baseline")
    return 0


# Workload knobs that make two resubmission runs comparable: same seeded
# chains, same repetition count.
RESUBMISSION_CONFIG_FIELDS = ("steps", "reps", "seed", "assignments")

# Chain-derived counters that are deterministic for a fixed config and must
# therefore match the baseline exactly.
RESUBMISSION_EXACT_FIELDS = ("submissions", "resubmissions",
                             "methods_total", "methods_reused",
                             "methods_regraded", "partial_hits")


def compare_resubmission(baseline, current, args):
    """Incremental-grading gate: feedback equivalence, exact method
    counters, an absolute partial-hit-rate floor, and trend gates on the
    wall-time speedup and allocation ratio."""
    for field in RESUBMISSION_CONFIG_FIELDS:
        base_value = lookup_number(baseline, args.baseline,
                                   f"config.{field}")
        cur_value = lookup_number(current, args.current, f"config.{field}")
        if base_value != cur_value:
            sys.exit(f"FAIL: {args.current} was generated with --{field} "
                     f"{cur_value} but the baseline used {base_value} — "
                     f"the runs grade different chains and are not "
                     f"comparable; rerun bench_resubmission to match")

    if not lookup(current, args.current, "totals.equivalent"):
        sys.exit("FAIL: current run reports feedback inequivalence — the "
                 "method cache changed grading output")

    failures = []

    for field in RESUBMISSION_EXACT_FIELDS:
        dotted = f"totals.{field}"
        base_value = lookup_number(baseline, args.baseline, dotted)
        cur_value = lookup_number(current, args.current, dotted)
        status = "ok"
        if base_value != cur_value:
            status = f"DRIFT (baseline {base_value})"
            failures.append(field)
        print(f"{dotted:40s} baseline {base_value:10g}  "
              f"current {cur_value:10g}  {status}")

    rate = lookup_number(current, args.current, "totals.partial_hit_rate")
    status = "ok"
    if rate < args.partial_hit_floor:
        status = f"BELOW FLOOR ({args.partial_hit_floor:.2f})"
        failures.append("partial_hit_rate")
    print(f"{'totals.partial_hit_rate':40s} floor "
          f"{args.partial_hit_floor:11.2f}  current {rate:10.3f}  {status}")

    base_speedup = lookup_number(baseline, args.baseline, "totals.speedup")
    cur_speedup = lookup_number(current, args.current, "totals.speedup")
    limit = base_speedup * (1.0 - args.threshold)
    status = "ok"
    if cur_speedup < limit:
        status = f"REGRESSION (limit {limit:.2f}x)"
        failures.append("speedup")
    print(f"{'totals.speedup':40s} baseline {base_speedup:9.2f}x  "
          f"current {cur_speedup:9.2f}x  {status}")

    base_alloc = lookup_number(baseline, args.baseline,
                               "totals.alloc_ratio")
    cur_alloc = lookup_number(current, args.current, "totals.alloc_ratio")
    limit = base_alloc * (1.0 + args.threshold)
    status = "ok"
    if cur_alloc > limit:
        status = f"REGRESSION (limit {limit:.3f})"
        failures.append("alloc_ratio")
    print(f"{'totals.alloc_ratio':40s} baseline {base_alloc:10.3f}  "
          f"current {cur_alloc:10.3f}  {status}")

    # Per-assignment lines: attribution only. Per-chain wall times on a
    # shared runner are too noisy to block a merge on.
    base_by_id = assignments_by_id(baseline, args.baseline)
    for aid, a in assignments_by_id(current, args.current).items():
        cur_a_rate = lookup_number(a, args.current, "partial_hit_rate")
        cur_a_speedup = lookup_number(a, args.current, "speedup")
        b = base_by_id.get(aid)
        if b is None:
            print(f"assignment {aid:29s} new assignment, no baseline — "
                  f"trend only")
            continue
        base_a_rate = lookup_number(b, args.baseline, "partial_hit_rate")
        base_a_speedup = lookup_number(b, args.baseline, "speedup")
        print(f"assignment {aid:29s} reuse {base_a_rate:.3f} -> "
              f"{cur_a_rate:.3f}  speedup {base_a_speedup:.2f}x -> "
              f"{cur_a_speedup:.2f}x  (trend only)")

    if failures:
        print(f"\nFAIL: resubmission regression in: {', '.join(failures)} "
              f"(ratio threshold {args.threshold:.0%}, partial-hit floor "
              f"{args.partial_hit_floor:.2f})")
        print("If the change is intended (cache/chain-generator change), "
              "regenerate bench/baselines/BENCH_resubmission.json with "
              "--update-baseline and commit it.")
        return 1
    print(f"\nOK: feedback equivalent, method counters match exactly, "
          f"partial-hit rate ≥ {args.partial_hit_floor:.2f}, speedup and "
          f"alloc ratio within {args.threshold:.0%} of baseline")
    return 0


def validate_for_update(current, path):
    """Schema-specific sanity before a report may become the baseline."""
    if current["schema"] == "jfeed-bench-matching-v1":
        if not current.get("equivalent", False):
            sys.exit("FAIL: refusing to update baseline from a run that "
                     "reports engine inequivalence")
        lookup_number(current, path, "totals.indexed_steps")
        lookup_number(current, path, "ablation.indexed_steps")
        lookup_number(current, path, "totals.allocs_per_submission")
        for a in assignments_by_id(current, path).values():
            lookup_number(a, path, "allocs_per_submission")
    elif current["schema"] == "jfeed-bench-loadgen-v1":
        if lookup_number(current, path, "totals.errors") != 0:
            sys.exit("FAIL: refusing to update baseline from a loadgen run "
                     "with transport/HTTP errors")
        for field in LOADGEN_CONFIG_FIELDS:
            lookup_number(current, path, f"config.{field}")
        for dotted in ("totals.sent", "totals.ok", "totals.shed",
                       "totals.shed_rate", "totals.latency_us.p99"):
            lookup_number(current, path, dotted)
        for a in assignments_by_id(current, path).values():
            lookup_number(a, path, "shed_rate")
            lookup_number(a, path, "latency_us.p99")
    elif current["schema"] == "jfeed-bench-resubmission-v1":
        if not lookup(current, path, "totals.equivalent"):
            sys.exit("FAIL: refusing to update baseline from a run that "
                     "reports feedback inequivalence")
        for field in RESUBMISSION_CONFIG_FIELDS:
            lookup_number(current, path, f"config.{field}")
        for field in RESUBMISSION_EXACT_FIELDS:
            lookup_number(current, path, f"totals.{field}")
        for dotted in ("totals.partial_hit_rate", "totals.speedup",
                       "totals.alloc_ratio"):
            lookup_number(current, path, dotted)
        for a in assignments_by_id(current, path).values():
            lookup_number(a, path, "partial_hit_rate")
            lookup_number(a, path, "speedup")
    else:
        lookup_number(current, path, "samples")
        for a in assignments_by_id(current, path).values():
            for field in TABLE1_EXACT_FIELDS:
                lookup_number(a, path, field)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional step regression for the "
                             "matching schema (default 0.10)")
    parser.add_argument("--p99-threshold", type=float, default=2.0,
                        help="allowed fractional p99 latency regression "
                             "for the loadgen schema (default 2.0 — 3x "
                             "baseline; shared runners jitter)")
    parser.add_argument("--shed-tolerance", type=float, default=0.10,
                        help="allowed absolute shed-rate increase over "
                             "baseline for the loadgen schema "
                             "(default 0.10)")
    parser.add_argument("--partial-hit-floor", type=float, default=0.60,
                        help="minimum acceptable totals.partial_hit_rate "
                             "for the resubmission schema (default 0.60, "
                             "the incremental-grading acceptance floor)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy CURRENT over BASELINE instead of "
                             "comparing (after an intended pattern/KB "
                             "change); creates the baseline if its schema "
                             "has no checked-in block yet")
    args = parser.parse_args()

    current = load(args.current)

    if args.update_baseline:
        # Validate before overwriting: an inequivalent or truncated run must
        # never become the new baseline.
        validate_for_update(current, args.current)
        # A baseline of a *different* schema is nearly always the wrong
        # target file — refuse rather than silently replace the block. A
        # missing baseline (new schema, no block checked in yet) is the
        # normal bootstrap path: create it, parent directories included.
        created = False
        try:
            with open(args.baseline) as f:
                existing = json.load(f)
            if (isinstance(existing, dict)
                    and existing.get("schema") != current["schema"]):
                sys.exit(f"FAIL: {args.baseline} carries schema "
                         f"{existing.get('schema')!r}, not "
                         f"{current['schema']!r} — refusing to replace a "
                         f"different benchmark's baseline (wrong file?)")
        except FileNotFoundError:
            created = True
        except json.JSONDecodeError:
            # A corrupt baseline is exactly what --update-baseline repairs.
            pass
        try:
            directory = os.path.dirname(args.baseline)
            if directory:
                os.makedirs(directory, exist_ok=True)
            shutil.copyfile(args.current, args.baseline)
        except OSError as err:
            sys.exit(f"FAIL: cannot write {args.baseline}: {err.strerror}")
        if created:
            print(f"created {args.baseline} from {args.current} "
                  f"(new {current['schema']} baseline)")
        else:
            print(f"updated {args.baseline} from {args.current}")
        return 0

    baseline = load(args.baseline)

    if baseline["schema"] != current["schema"]:
        # The candidate simply does not carry the benchmark block this
        # baseline gates — one line, both files, both schemas.
        sys.exit(f"FAIL: {args.current} has no {baseline['schema']} "
                 f"benchmark block (it carries {current['schema']}); "
                 f"baseline {args.baseline} cannot gate it — regenerate "
                 f"the candidate with the matching bench tool")

    if baseline["schema"] == "jfeed-bench-matching-v1":
        return compare_matching(baseline, current, args)
    if baseline["schema"] == "jfeed-bench-loadgen-v1":
        return compare_loadgen(baseline, current, args)
    if baseline["schema"] == "jfeed-bench-resubmission-v1":
        return compare_resubmission(baseline, current, args)
    return compare_table1(baseline, current, args)


if __name__ == "__main__":
    sys.exit(main())
