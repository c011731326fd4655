"""Tests of scripts/count_gate.py on a recorded `analyze` result.

    python3 -m unittest discover -s scripts

Runs in well under a second: no benchmark is built or run.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import count_gate  # noqa: E402

# The result line of a traced seed-1 `analyze` run, cut down to its header
# and its count metrics, plus one time metric the gate must ignore.
RECORDED = {
    "correct": True,
    "attempted": 106,
    "failed": 0,
    "metrics": {
        "analysis.houdini_rounds": {"value": 153, "unit": "count"},
        "analysis.candidates": {"value": 955, "unit": "count"},
        "analysis.self_s": {"value": 1.33, "unit": "s"},
        "core.hoare_checks": {"value": 15531, "unit": "count"},
        "core.pairs_silent": {"value": 9037, "unit": "count"},
        "core.signals": {"value": 62, "unit": "count"},
        "core.broadcasts": {"value": 2085, "unit": "count"},
        "core.unconditional": {"value": 165, "unit": "count"},
        "core.commutativity_wins": {"value": 13, "unit": "count"},
        "solver.queries": {"value": 18328, "unit": "count"},
        "solver.memo_hit_ratio": {"value": 0.2530008729812309,
                                  "unit": "ratio"},
        "solver.backend_calls": {"value": 13698, "unit": "count"},
        "logic.terms": {"value": 206513, "unit": "count"},
    },
}


class CountGate(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.dir.name, "analyze_counts.json")
        code, out = self.gate(RECORDED, "--update")
        self.assertEqual(code, 0, out)

    def tearDown(self):
        self.dir.cleanup()

    def gate(self, result, *flags):
        """Runs the gate on `result` as run.py prints it: build log lines,
        then the JSON line. Returns (exit code, printed text)."""
        path = os.path.join(self.dir.name, "analyze.out")
        with open(path, "w") as f:
            f.write("[100%] Built target perfbench\n")
            f.write(json.dumps(result) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = count_gate.main([path, *flags], baseline=self.baseline)
        return code, out.getvalue()

    def test_identical_result_passes(self):
        code, out = self.gate(RECORDED)
        self.assertEqual(code, 0, out)

    def test_time_metrics_are_not_gated(self):
        result = copy.deepcopy(RECORDED)
        result["metrics"]["analysis.self_s"]["value"] *= 3
        code, out = self.gate(result)
        self.assertEqual(code, 0, out)

    def test_any_count_off_by_one_fails_and_is_named(self):
        for name in count_gate.COUNT_METRICS:
            for delta in (1, -1):
                with self.subTest(metric=name, delta=delta):
                    result = copy.deepcopy(RECORDED)
                    result["metrics"][name]["value"] += delta
                    code, out = self.gate(result)
                    self.assertNotEqual(code, 0, out)
                    self.assertIn(f"FAIL: {name}:", out)

    def test_incorrect_run_fails(self):
        result = dict(RECORDED, correct=False)
        code, out = self.gate(result)
        self.assertNotEqual(code, 0, out)
        self.assertIn("correct", out)

    def test_failed_inputs_fail(self):
        result = dict(RECORDED, failed=1)
        code, out = self.gate(result)
        self.assertNotEqual(code, 0, out)
        self.assertIn("failed", out)

    def test_missing_result_fails(self):
        path = os.path.join(self.dir.name, "empty.out")
        with open(path, "w") as f:
            f.write("cmake: build failed\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = count_gate.main([path], baseline=self.baseline)
        self.assertNotEqual(code, 0, out.getvalue())

    def test_committed_baseline_lists_the_count_metrics(self):
        with open(count_gate.BASELINE) as f:
            committed = json.load(f)
        self.assertEqual(sorted(committed), sorted(count_gate.COUNT_METRICS))


if __name__ == "__main__":
    unittest.main()
