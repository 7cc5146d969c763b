#!/usr/bin/env python3
"""End-to-end test of `grade --batch`: pipes four NDJSON lines through the
built grader (the reference, a comment-only duplicate of it, an unparseable
source and a line that is not JSON) and checks the output order, the
per-line error object, the dedup count in the stderr summary and the exit
code. Run from ctest via find_package(Python3):

    python3 tools/grade_batch_test.py build/tools/grade
"""

import json
import subprocess
import sys
import unittest

GRADE = None  # Path of the grade binary, taken from the command line.


class GradeBatchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        reference = subprocess.run(
            [GRADE, "assignment1", "--reference"], capture_output=True,
            text=True, check=True, timeout=60).stdout
        lines = [
            json.dumps({"id": "ref", "source": reference}),
            json.dumps({"id": "dup", "source": "// again\n" + reference}),
            json.dumps({"id": "broken", "source": "int broken( { ]["}),
            "this line is not JSON",
        ]
        cls.result = subprocess.run(
            [GRADE, "assignment1", "--batch", "--jobs", "2"],
            input="\n".join(lines) + "\n", capture_output=True, text=True,
            timeout=120)
        cls.outputs = [json.loads(line)
                       for line in cls.result.stdout.splitlines()]

    def test_one_output_line_per_input_line_in_index_order(self):
        self.assertEqual([o["index"] for o in self.outputs], [0, 1, 2, 3])
        self.assertEqual([o["id"] for o in self.outputs],
                         ["ref", "dup", "broken", None])

    def test_outcomes_sit_at_their_input_lines(self):
        self.assertEqual(self.outputs[0]["verdict"], "correct")
        self.assertEqual(self.outputs[1]["verdict"], "correct")
        self.assertEqual(self.outputs[2]["tier"], "parse_diagnostic")

    def test_non_json_line_gets_an_error_object_at_its_index(self):
        error = self.outputs[3]
        self.assertEqual(error["index"], 3)
        self.assertIn("error", error)
        self.assertNotIn("verdict", error)

    def test_summary_counts_the_duplicate_as_one_dedup_hit(self):
        self.assertIn("1 dedup hits", self.result.stderr)

    def test_exit_code_reports_the_degraded_lines(self):
        self.assertEqual(self.result.returncode, 1, self.result.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: grade_batch_test.py <grade-binary> [unittest args]")
    GRADE = sys.argv.pop(1)
    unittest.main()
