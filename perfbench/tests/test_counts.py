"""Count-determinism self-test of the benchmark.

Two traced `analyze` runs with the same seed must report identical
count-type per-layer metrics: that is what lets a later change claim a
count rather than a speed-up. Each traced run also checks, input by input,
that its Σ and counts equal those of its untraced twin, and reports
correct = false otherwise.

    python3 -m unittest discover -s perfbench/tests

Takes about a minute: each traced run analyzes the whole input draw
twice, including the two 100+-CCR corpus monitors.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

COUNT_METRICS = (
    "analysis.houdini_rounds",
    "analysis.candidates",
    "core.hoare_checks",
    "core.pairs_silent",
    "core.signals",
    "core.broadcasts",
    "core.unconditional",
    "core.commutativity_wins",
    "solver.queries",
    "solver.memo_hit_ratio",
    "solver.backend_calls",
    "logic.terms",
)


def traced_analyze(seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "analyze", "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CountDeterminism(unittest.TestCase):
    def test_same_seed_gives_identical_counts(self):
        first, second = traced_analyze(7), traced_analyze(7)
        self.assertTrue(first["correct"], "traced run 1 failed its checks")
        self.assertTrue(second["correct"], "traced run 2 failed its checks")
        for name in COUNT_METRICS:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)
        self.assertGreater(first["metrics"]["core.hoare_checks"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
