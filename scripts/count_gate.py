#!/usr/bin/env python3
"""Count gate: holds the algorithmic work of a traced `analyze` run to a
committed baseline, exactly.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 1 \\
        --trace 1 > analyze.out
    python3 scripts/count_gate.py analyze.out

The last JSON line of the run is its result. The gate compares the count
metrics listed in perfbench/tests/test_counts.py (solver queries, backend
calls, interned terms, Hoare checks, Houdini rounds, ...) with
scripts/analyze_counts.json. Counts repeat exactly between runs of one seed,
so there is no threshold: any difference, in either direction, fails
(exit 1). So does a run that reports `correct` other than true, a failed
input, or no result at all. There is no pass for want of a baseline: the
baseline is a file in the repository.

A change that moves the counts on purpose rewrites the baseline, and the
diff of scripts/analyze_counts.json shows the move:

    python3 scripts/count_gate.py analyze.out --update

The gate does not see constant-factor slowdowns; only work that changes a
count.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "analyze_counts.json")

sys.dont_write_bytecode = True  # leave no __pycache__ inside perfbench/
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench", "tests"))
from test_counts import COUNT_METRICS  # noqa: E402


def last_json_line(text):
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


def counts_of(result):
    metrics = result.get("metrics", {})
    return {name: metrics[name]["value"]
            for name in COUNT_METRICS if name in metrics}


def render(counts):
    return json.dumps(counts, indent=2) + "\n"


def main(argv=None, baseline=BASELINE):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("result", help="output of perfbench/run.py, '-' for stdin")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline with this run's counts")
    args = ap.parse_args(argv)

    if args.result == "-":
        text = sys.stdin.read()
    else:
        with open(args.result) as f:
            text = f.read()
    result = last_json_line(text)
    if result is None:
        print("count-gate: FAIL: no JSON result line in the run's output")
        return 1

    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')!r}, not 0")
    counts = counts_of(result)
    missing = [name for name in COUNT_METRICS if name not in counts]
    if missing:
        problems.append(f"the run reports no {', '.join(missing)}")
    if problems:
        # The counts of a run that failed its own checks mean nothing.
        for p in problems:
            print(f"count-gate: FAIL: {p}")
        return 1

    if args.update:
        with open(baseline, "w") as f:
            f.write(render(counts))
        print(f"count-gate: wrote {baseline}")
        return 0

    with open(baseline) as f:
        expected = json.load(f)
    if sorted(expected) != sorted(COUNT_METRICS):
        problems.append("the baseline does not list exactly the count "
                        "metrics of perfbench/tests/test_counts.py")
    for name in COUNT_METRICS:
        if name in expected and counts[name] != expected[name]:
            problems.append(f"{name}: baseline {expected[name]}, "
                            f"this run {counts[name]}")

    if not problems:
        print(f"count-gate: OK: {len(COUNT_METRICS)} counts equal the "
              f"baseline")
        return 0
    for p in problems:
        print(f"count-gate: FAIL: {p}")
    print("count-gate: if the change is intended, commit this as "
          "scripts/analyze_counts.json (or rerun with --update):")
    print(render(counts), end="")
    return 1


if __name__ == "__main__":
    sys.exit(main())
