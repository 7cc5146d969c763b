#!/usr/bin/env python3
"""Unit tests for compare_bench.py: the CI gate must fail readably (one-line
diagnostic, exit 1) on schema drift, gate regressions by threshold, and
support --update-baseline. Run from ctest via find_package(Python3)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")


def report(indexed_total=100, ablation=50, assignments=None,
           equivalent=True, schema="jfeed-bench-matching-v1",
           allocs_total=150):
    if assignments is None:
        assignments = [{"id": "assignment1", "indexed": {"steps": 40},
                        "allocs_per_submission": 150}]
    return {
        "schema": schema,
        "equivalent": equivalent,
        "totals": {"indexed_steps": indexed_total,
                   "allocs_per_submission": allocs_total},
        "ablation": {"indexed_steps": ablation},
        "assignments": assignments,
    }


def table1_assignment(aid="assignment1", discrepancies=3, evaluated=198,
                      interp_steps=51234, step_budget_timeouts=7):
    return {"id": aid, "space": 1000, "patterns": 4, "constraints": 2,
            "sampled": 200, "evaluated": evaluated, "parse_failures": 2,
            "discrepancies": discrepancies, "paper_discrepancies": 4,
            "interp_steps": interp_steps,
            "step_budget_timeouts": step_budget_timeouts,
            "avg_loc": 11.5, "avg_functional_us": 120.0,
            "avg_match_us": 40.0, "interp_steps_per_s": 4.5e7,
            "wall_ms": 55.3}


def table1_report(samples=200, assignments=None):
    if assignments is None:
        assignments = [table1_assignment()]
    return {
        "schema": "jfeed-bench-table1-v1",
        "samples": samples,
        "assignments": assignments,
        "totals": {"assignments": len(assignments), "wall_ms": 55.3},
    }


def loadgen_block(sent=600, ok=570, shed=30, errors=0, p99=12000):
    return {"sent": sent, "ok": ok, "shed": shed, "errors": errors,
            "shed_rate": shed / sent if sent else 0.0,
            "throughput_ok_per_s": 95.0,
            "latency_us": {"p50": 2000, "p90": 8000, "p99": p99,
                           "max": p99 * 2}}


def loadgen_report(sent=600, shed=30, errors=0, p99=12000,
                   assignments=None):
    if assignments is None:
        assignments = [dict(id="assignment1",
                            **loadgen_block(sent=sent // 2, shed=shed // 2,
                                            p99=p99)),
                       dict(id="mitx-polynomials",
                            **loadgen_block(sent=sent - sent // 2,
                                            shed=shed - shed // 2,
                                            p99=p99))]
    return {
        "schema": "jfeed-bench-loadgen-v1",
        "config": {"submissions": sent, "connections": 8, "idle_ms": 1000,
                   "spike_ms": 4000, "seed": 1, "time_scale": 25},
        "wall_s": 6.3,
        "totals": loadgen_block(sent=sent, ok=sent - shed - errors,
                                shed=shed, errors=errors, p99=p99),
        "assignments": assignments,
    }


def resubmission_assignment(aid="assignment1", rate=0.875, speedup=2.2):
    return {"id": aid, "partial_hit_rate": rate, "speedup": speedup,
            "cold_wall_ms": 4.0, "warm_wall_ms": 4.0 / speedup}


def resubmission_report(methods_reused=252, methods_total=288, speedup=2.2,
                        alloc_ratio=0.78, equivalent=True, assignments=None):
    if assignments is None:
        assignments = [resubmission_assignment(
            rate=methods_reused / methods_total, speedup=speedup)]
    return {
        "schema": "jfeed-bench-resubmission-v1",
        "config": {"steps": 8, "reps": 5, "seed": 1,
                   "assignments": len(assignments)},
        "totals": {
            "submissions": 108, "resubmissions": 96,
            "methods_total": methods_total,
            "methods_reused": methods_reused,
            "methods_regraded": methods_total - methods_reused,
            "partial_hits": 96,
            "partial_hit_rate": methods_reused / methods_total,
            "cold_wall_ms": 100.0, "warm_wall_ms": 100.0 / speedup,
            "speedup": speedup, "cold_allocs": 10000,
            "warm_allocs": int(10000 * alloc_ratio),
            "alloc_ratio": alloc_ratio, "equivalent": equivalent,
        },
        "assignments": assignments,
    }


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, data):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            if isinstance(data, str):
                f.write(data)
            else:
                json.dump(data, f)
        return path

    def run_compare(self, *argv):
        return subprocess.run([sys.executable, SCRIPT, *argv],
                              capture_output=True, text=True)

    def test_identical_reports_pass(self):
        base = self.write("base.json", report())
        cur = self.write("cur.json", report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK: no step or allocation regressions", result.stdout)

    def test_regression_beyond_threshold_fails(self):
        base = self.write("base.json", report(indexed_total=100))
        cur = self.write("cur.json", report(indexed_total=150))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)
        self.assertIn("totals.indexed_steps", result.stdout)

    def test_regression_within_custom_threshold_passes(self):
        base = self.write("base.json", report(indexed_total=100))
        cur = self.write("cur.json", report(indexed_total=150))
        result = self.run_compare(base, cur, "--threshold", "0.60")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_allocation_regression_beyond_threshold_fails(self):
        base = self.write("base.json", report(allocs_total=150))
        cur = self.write("cur.json", report(allocs_total=400))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)
        self.assertIn("totals.allocs_per_submission", result.stdout)

    def test_allocation_regression_within_threshold_passes(self):
        base = self.write("base.json", report(allocs_total=150))
        cur = self.write("cur.json", report(allocs_total=160))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_missing_allocs_key_fails_with_message_not_traceback(self):
        # A baseline generated before the allocation counter existed must
        # fail with the regenerate hint, not a KeyError traceback.
        stale = report()
        del stale["totals"]["allocs_per_submission"]
        base = self.write("base.json", stale)
        cur = self.write("cur.json", report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("missing key 'totals.allocs_per_submission'", combined)
        self.assertNotIn("Traceback", combined)

    def test_update_baseline_refuses_report_without_allocs(self):
        base = self.write("base.json", report(allocs_total=150))
        truncated = report()
        del truncated["assignments"][0]["allocs_per_submission"]
        cur = self.write("cur.json", truncated)
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 1)
        with open(base) as f:
            self.assertEqual(
                json.load(f)["totals"]["allocs_per_submission"], 150)

    def test_missing_baseline_key_fails_with_message_not_traceback(self):
        stale = report()
        del stale["totals"]["indexed_steps"]
        base = self.write("base.json", stale)
        cur = self.write("cur.json", report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("missing key 'totals.indexed_steps'", combined)
        self.assertIn("base.json", combined)
        self.assertNotIn("Traceback", combined)

    def test_missing_nested_assignment_key_fails_readably(self):
        stale = report(assignments=[{"id": "assignment1", "indexed": {}}])
        base = self.write("base.json", stale)
        cur = self.write("cur.json", report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("missing key 'indexed.steps'", combined)
        self.assertNotIn("Traceback", combined)

    def test_invalid_json_fails_readably(self):
        base = self.write("base.json", "{not json")
        cur = self.write("cur.json", report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("not valid JSON", combined)
        self.assertNotIn("Traceback", combined)

    def test_wrong_schema_fails(self):
        base = self.write("base.json", report(schema="something-else"))
        cur = self.write("cur.json", report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("unexpected schema", result.stdout + result.stderr)

    def test_inequivalent_current_fails(self):
        base = self.write("base.json", report())
        cur = self.write("cur.json", report(equivalent=False))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("inequivalence", result.stdout + result.stderr)

    def test_update_baseline_copies_current(self):
        base = self.write("base.json", report(indexed_total=100))
        cur = self.write("cur.json", report(indexed_total=150))
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        with open(base) as f:
            self.assertEqual(json.load(f)["totals"]["indexed_steps"], 150)
        # And the updated baseline now gates cleanly against that run.
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0)

    def test_update_baseline_refuses_inequivalent_run(self):
        base = self.write("base.json", report(indexed_total=100))
        cur = self.write("cur.json", report(equivalent=False))
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 1)
        with open(base) as f:
            self.assertEqual(json.load(f)["totals"]["indexed_steps"], 100)

    def test_table1_identical_reports_pass(self):
        base = self.write("base.json", table1_report())
        cur = self.write("cur.json", table1_report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("coverage counters match", result.stdout)

    def test_table1_wall_time_change_alone_passes(self):
        base = self.write("base.json", table1_report())
        drifted = table1_report()
        drifted["assignments"][0]["wall_ms"] = 9999.0
        drifted["assignments"][0]["avg_match_us"] = 77.0
        cur = self.write("cur.json", drifted)
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_table1_coverage_drift_fails(self):
        base = self.write("base.json", table1_report())
        cur = self.write("cur.json", table1_report(
            assignments=[table1_assignment(discrepancies=9)]))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("DRIFT", result.stdout)
        self.assertIn("discrepancies 3 -> 9", result.stdout)

    def test_table1_step_accounting_drift_fails(self):
        base = self.write("base.json", table1_report())
        for drift, message in (
                (dict(interp_steps=51235), "interp_steps 51234 -> 51235"),
                (dict(step_budget_timeouts=6),
                 "step_budget_timeouts 7 -> 6")):
            cur = self.write("cur.json", table1_report(
                assignments=[table1_assignment(**drift)]))
            result = self.run_compare(base, cur)
            self.assertEqual(result.returncode, 1, drift)
            self.assertIn("DRIFT", result.stdout)
            self.assertIn(message, result.stdout)

    def test_table1_steps_per_second_is_trend_only(self):
        base = self.write("base.json", table1_report())
        drifted = table1_report()
        drifted["assignments"][0]["interp_steps_per_s"] = 1.0
        cur = self.write("cur.json", drifted)
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_table1_sample_count_mismatch_fails_readably(self):
        base = self.write("base.json", table1_report(samples=200))
        cur = self.write("cur.json", table1_report(samples=500))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("--samples", combined)
        self.assertNotIn("Traceback", combined)

    def test_table1_missing_assignment_fails(self):
        base = self.write("base.json", table1_report(assignments=[
            table1_assignment("assignment1"),
            table1_assignment("assignment2"),
        ]))
        cur = self.write("cur.json", table1_report(
            assignments=[table1_assignment("assignment1")]))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("MISSING", result.stdout)

    def test_candidate_lacking_baselines_block_fails_with_one_line(self):
        # Satellite contract: a baseline exists, but the candidate carries
        # a different benchmark block — one readable line, no traceback.
        base = self.write("base.json", table1_report())
        cur = self.write("cur.json", report())  # matching-v1 block only
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("has no jfeed-bench-table1-v1 benchmark block",
                      combined)
        self.assertIn("cur.json", combined)
        self.assertIn("base.json", combined)
        self.assertNotIn("Traceback", combined)
        # And the mirror case: matching baseline, table1 candidate.
        result = self.run_compare(self.write("base2.json", report()),
                                  self.write("cur2.json", table1_report()))
        self.assertEqual(result.returncode, 1)
        self.assertIn("has no jfeed-bench-matching-v1 benchmark block",
                      result.stdout + result.stderr)

    def test_table1_update_baseline_copies_current(self):
        base = self.write("base.json", table1_report())
        cur = self.write("cur.json", table1_report(
            assignments=[table1_assignment(discrepancies=9)]))
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0)

    def test_table1_update_baseline_refuses_truncated_report(self):
        base = self.write("base.json", table1_report())
        truncated = table1_report()
        del truncated["assignments"][0]["discrepancies"]
        cur = self.write("cur.json", truncated)
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 1)
        with open(base) as f:
            self.assertEqual(
                json.load(f)["assignments"][0]["discrepancies"], 3)

    def test_string_steps_fail_with_message_not_traceback(self):
        # Valid JSON, right keys, wrong types: a hand-edited baseline with
        # quoted numbers must produce one line, not a TypeError traceback.
        drifted = report()
        drifted["totals"]["indexed_steps"] = "100"
        base = self.write("base.json", drifted)
        cur = self.write("cur.json", report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("'totals.indexed_steps' should be a number", combined)
        self.assertIn("str '100'", combined)
        self.assertIn("base.json", combined)
        self.assertNotIn("Traceback", combined)

    def test_non_list_assignments_fail_readably(self):
        drifted = report()
        drifted["assignments"] = "assignment1"
        base = self.write("base.json", drifted)
        cur = self.write("cur.json", report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("'assignments' should be a list", combined)
        self.assertNotIn("Traceback", combined)

    def test_table1_string_wall_ms_fails_readably(self):
        drifted = table1_report()
        drifted["assignments"][0]["wall_ms"] = "55.3"
        base = self.write("base.json", table1_report())
        cur = self.write("cur.json", drifted)
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("'wall_ms' should be a number", combined)
        self.assertIn("cur.json", combined)
        self.assertNotIn("Traceback", combined)

    def test_table1_string_samples_fails_readably(self):
        drifted = table1_report()
        drifted["samples"] = "200"
        base = self.write("base.json", drifted)
        cur = self.write("cur.json", table1_report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("'samples' should be a number", combined)
        self.assertNotIn("Traceback", combined)

    def test_update_baseline_refuses_wrongly_typed_report(self):
        base = self.write("base.json", report(indexed_total=100))
        drifted = report()
        drifted["ablation"]["indexed_steps"] = "50"
        cur = self.write("cur.json", drifted)
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 1)
        with open(base) as f:
            self.assertEqual(json.load(f)["totals"]["indexed_steps"], 100)

    def test_loadgen_identical_reports_pass(self):
        base = self.write("base.json", loadgen_report())
        cur = self.write("cur.json", loadgen_report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK: errors 0", result.stdout)

    def test_loadgen_noisy_p99_within_threshold_passes(self):
        # Default threshold is generous on purpose: 2.9x baseline p99 is
        # runner noise, not a regression.
        base = self.write("base.json", loadgen_report(p99=10000))
        cur = self.write("cur.json", loadgen_report(p99=29000))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_loadgen_p99_regression_beyond_threshold_fails(self):
        base = self.write("base.json", loadgen_report(p99=10000))
        cur = self.write("cur.json", loadgen_report(p99=40000))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)
        self.assertIn("p99", result.stdout)

    def test_loadgen_custom_p99_threshold_tightens_the_gate(self):
        base = self.write("base.json", loadgen_report(p99=10000))
        cur = self.write("cur.json", loadgen_report(p99=12000))
        result = self.run_compare(base, cur, "--p99-threshold", "0.10")
        self.assertEqual(result.returncode, 1)
        self.assertIn("p99", result.stdout)

    def test_loadgen_shed_rate_beyond_tolerance_fails(self):
        base = self.write("base.json", loadgen_report(shed=30))   # 5%
        cur = self.write("cur.json", loadgen_report(shed=150))    # 25%
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("shed_rate", result.stdout)

    def test_loadgen_shed_rate_within_tolerance_passes(self):
        base = self.write("base.json", loadgen_report(shed=30))   # 5%
        cur = self.write("cur.json", loadgen_report(shed=60))     # 10%
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_loadgen_transport_errors_fail(self):
        base = self.write("base.json", loadgen_report())
        cur = self.write("cur.json", loadgen_report(errors=2))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("errors", result.stdout)

    def test_loadgen_workload_mismatch_fails_readably(self):
        base = self.write("base.json", loadgen_report(sent=600))
        drifted = loadgen_report(sent=600)
        drifted["config"]["seed"] = 7
        cur = self.write("cur.json", drifted)
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("not comparable", combined)
        self.assertIn("--seed", combined)
        self.assertNotIn("Traceback", combined)

    def test_loadgen_string_p99_fails_readably(self):
        drifted = loadgen_report()
        drifted["totals"]["latency_us"]["p99"] = "12000"
        base = self.write("base.json", loadgen_report())
        cur = self.write("cur.json", drifted)
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("'totals.latency_us.p99' should be a number", combined)
        self.assertNotIn("Traceback", combined)

    def test_loadgen_update_baseline_refuses_errored_run(self):
        base = self.write("base.json", loadgen_report())
        cur = self.write("cur.json", loadgen_report(errors=1))
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 1)
        with open(base) as f:
            self.assertEqual(json.load(f)["totals"]["errors"], 0)

    def test_loadgen_update_baseline_copies_validated_run(self):
        base = self.write("base.json", loadgen_report(p99=10000))
        cur = self.write("cur.json", loadgen_report(p99=99000))
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0)

    def test_resubmission_identical_reports_pass(self):
        base = self.write("base.json", resubmission_report())
        cur = self.write("cur.json", resubmission_report())
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("method counters match exactly", result.stdout)

    def test_resubmission_counter_drift_fails(self):
        base = self.write("base.json", resubmission_report())
        cur = self.write("cur.json",
                         resubmission_report(methods_reused=200))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("DRIFT", result.stdout)
        self.assertIn("methods_reused", result.stdout)

    def test_resubmission_partial_hit_rate_below_floor_fails(self):
        # Both runs agree (no drift) but reuse collapsed below the 60%
        # acceptance floor — the absolute gate catches what a
        # baseline-relative one would wave through.
        base = self.write("base.json",
                          resubmission_report(methods_reused=144))  # 50%
        cur = self.write("cur.json",
                         resubmission_report(methods_reused=144))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("BELOW FLOOR", result.stdout)

    def test_resubmission_speedup_regression_beyond_threshold_fails(self):
        base = self.write("base.json", resubmission_report(speedup=2.2))
        cur = self.write("cur.json", resubmission_report(speedup=1.5))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)
        self.assertIn("speedup", result.stdout)

    def test_resubmission_speedup_within_threshold_passes(self):
        base = self.write("base.json", resubmission_report(speedup=2.2))
        cur = self.write("cur.json", resubmission_report(speedup=2.05))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_resubmission_alloc_ratio_regression_fails(self):
        base = self.write("base.json", resubmission_report(alloc_ratio=0.78))
        cur = self.write("cur.json", resubmission_report(alloc_ratio=0.95))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("alloc_ratio", result.stdout)

    def test_resubmission_inequivalent_run_fails(self):
        base = self.write("base.json", resubmission_report())
        cur = self.write("cur.json", resubmission_report(equivalent=False))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("inequivalence", result.stdout + result.stderr)

    def test_resubmission_config_mismatch_fails_readably(self):
        base = self.write("base.json", resubmission_report())
        drifted = resubmission_report()
        drifted["config"]["seed"] = 7
        cur = self.write("cur.json", drifted)
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("not comparable", combined)
        self.assertIn("--seed", combined)
        self.assertNotIn("Traceback", combined)

    def test_resubmission_update_baseline_refuses_inequivalent(self):
        base = self.write("base.json", resubmission_report())
        cur = self.write("cur.json", resubmission_report(equivalent=False))
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 1)
        with open(base) as f:
            self.assertTrue(json.load(f)["totals"]["equivalent"])

    def test_update_baseline_creates_missing_baseline_file(self):
        # Satellite contract: a schema with no checked-in baseline block
        # yet (brand-new bench) bootstraps via --update-baseline instead of
        # failing — parent directories included.
        missing = os.path.join(self.dir.name, "baselines", "BENCH_new.json")
        cur = self.write("cur.json", resubmission_report())
        result = self.run_compare(missing, cur, "--update-baseline")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("created", result.stdout)
        self.assertNotIn("Traceback", result.stdout + result.stderr)
        with open(missing) as f:
            self.assertEqual(json.load(f)["schema"],
                             "jfeed-bench-resubmission-v1")
        # And the created baseline immediately gates the same run cleanly.
        result = self.run_compare(missing, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_update_baseline_refuses_cross_schema_overwrite(self):
        # Pointing --update-baseline at a different benchmark's baseline
        # is nearly always a wrong-file mistake; the block must survive.
        base = self.write("base.json", table1_report())
        cur = self.write("cur.json", resubmission_report())
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("refusing to replace", combined)
        self.assertNotIn("Traceback", combined)
        with open(base) as f:
            self.assertEqual(json.load(f)["schema"],
                             "jfeed-bench-table1-v1")

    def test_update_baseline_repairs_corrupt_baseline(self):
        base = self.write("base.json", "{truncated")
        cur = self.write("cur.json", resubmission_report())
        result = self.run_compare(base, cur, "--update-baseline")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        with open(base) as f:
            self.assertEqual(json.load(f)["schema"],
                             "jfeed-bench-resubmission-v1")

    def test_resubmission_string_counter_fails_readably(self):
        drifted = resubmission_report()
        drifted["totals"]["methods_reused"] = "252"
        base = self.write("base.json", resubmission_report())
        cur = self.write("cur.json", drifted)
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        combined = result.stdout + result.stderr
        self.assertIn("'totals.methods_reused' should be a number", combined)
        self.assertNotIn("Traceback", combined)

    def test_new_assignment_without_baseline_is_skipped(self):
        base = self.write("base.json", report())
        cur = self.write("cur.json", report(assignments=[
            {"id": "assignment1", "indexed": {"steps": 40},
             "allocs_per_submission": 150},
            {"id": "assignment9", "indexed": {"steps": 999},
             "allocs_per_submission": 999},
        ]))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("no baseline", result.stdout)


if __name__ == "__main__":
    unittest.main()
