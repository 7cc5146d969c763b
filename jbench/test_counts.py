#!/usr/bin/env python3
"""The benchmark's own tests: its exact per-layer counts.

    python3 jbench/test_counts.py

Builds the benchmark like run.py does, then replays each workload's layer
replay set (jbench --counts) twice with one seed and once with another. The
five counts -- pdg.nodes, core.match_steps, core.regex_checks,
testing.step_budget_timeouts and interp.steps_spent -- must repeat exactly
for a seed and differ across seeds (where a workload does that work at all:
only regrade-esc pays step-budget timeouts). That is what lets a later change
name them as counts rather than timings.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNTS = ("pdg.nodes", "core.match_steps", "core.regex_checks",
          "testing.step_budget_timeouts", "interp.steps_spent")
SECONDS = 10


def counts(binary, jfeedd, workload, seed):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(SECONDS), "--jfeedd", jfeedd, "--counts"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=run.ROOT, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], "layer replay disagreed with Grade"
    return {name: result["metrics"][name]["value"] for name in COUNTS}


class ExactCountsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, cls.jfeedd = run.build()

    def check(self, workload, must_differ):
        first = counts(self.binary, self.jfeedd, workload, 1)
        again = counts(self.binary, self.jfeedd, workload, 1)
        other = counts(self.binary, self.jfeedd, workload, 2)
        self.assertEqual(first, again)
        for name in must_differ:
            self.assertNotEqual(first[name], other[name], name)

    def test_regrade_esc(self):
        self.check("regrade-esc", COUNTS)

    def test_regrade_rit(self):
        # The RIT programs always terminate: no step-budget timeouts.
        self.check("regrade-rit", [c for c in COUNTS
                                   if c != "testing.step_budget_timeouts"])

    def test_served_resubmit(self):
        self.check("served-resubmit", [c for c in COUNTS
                                       if c != "testing.step_budget_timeouts"])


if __name__ == "__main__":
    unittest.main()
