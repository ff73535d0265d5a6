"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs one cheap job of the seed-0
job list, untraced and traced, and checks that the job matches its
golden and that each mode prints exactly the metrics BENCHMARK.json names,
each with a finite value.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import sys

from run import BENCH, ROOT, measure
from workloads import pick

# Index, in the seed-0 job list, of the job each workload's smoke run uses:
# a build, the product-rule script, and the p = 3 wreath suite.
SMOKE_JOB = {"cli_short": 0, "univariate": 10, "wreath": 1}


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(BENCH / "goldens.json") as fh:
        goldens = json.load(fh)
    wanted = {
        False: [m["name"] for m in bench["end_to_end"]],
        True: [m["name"] for m in bench["per_layer"]],
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        job = pick(goldens["workloads"][workload]["slots"], 0)[SMOKE_JOB[workload]]
        for trace in (False, True):
            result = measure(workload, 0, 0, trace, jobs=[job])["result"]
            where = f"{workload} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} job(s) differ from the goldens")
            if list(result["metrics"]) != wanted[trace]:
                missing = set(wanted[trace]) - set(result["metrics"])
                extra = set(result["metrics"]) - set(wanted[trace])
                problems.append(f"{where}: missing {sorted(missing)}, extra {sorted(extra)}")
            for name, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]):
                    problems.append(f"{where}: {name} = {metric['value']}")
            print(f"{where}: {job} -> {result['attempted']} attempted, {result['failed']} failed")
    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
