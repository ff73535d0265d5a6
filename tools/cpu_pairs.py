"""In-process CPU time of CLI commands on two source trees, in pairs.

    python3 tools/cpu_pairs.py PARENT CHANGE ROUNDS JOBS

PARENT and CHANGE are checkouts of this repository and JOBS is a JSON list
of CLI argument lists, for example

    python3 tools/cpu_pairs.py ../parent . 10 \\
        '[["verify", "configs/lamplighter_p3_n2.json", "--suite", "core"]]'

Each round runs every job once on each tree, and the tree that runs first
alternates from round to round.  Each sample is a fresh interpreter, run
in its tree (so config paths are relative to it) with PYTHONHASHSEED=0,
PYTHONDONTWRITEBYTECODE=1 and PYTHONPATH=<tree>/src, which times
`time.process_time()` around `selfsim.cli.main(argv)` with stdout captured:
start-up, imports and printing are outside the timed part.  After the call
the sample also reads its own peak resident set size, `VmHWM` in
/proc/self/status, in MB of 1024 kB (null where /proc is absent).

Prints one JSON line: per job, and for the sum over the jobs of a round,
each tree's median and quartiles in seconds, the parent's interquartile
range, and the number of rounds the change ran faster (ties count for
neither); per job also each tree's median `peak_mb` (null when a sample
has none).  Exits 1 when the stdout or exit code of a job differs between
its samples (between the trees, or from round to round), and 2 when a
sample fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# Runs in the child: the CLI's exit code, its stdout, the CPU seconds of
# the call and the process's peak RSS in MB, as one JSON line on the real
# stdout.
CHILD = """
import io, json, sys, time
from contextlib import redirect_stdout
from selfsim import cli
argv = json.loads(sys.argv[1])
out = io.StringIO()
with redirect_stdout(out):
    start = time.process_time()
    code = cli.main(argv)
    cpu = time.process_time() - start
peak = None
try:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                peak = int(line.split()[1]) / 1024
except OSError:
    pass
print(json.dumps({"cpu": cpu, "code": code, "stdout": out.getvalue(), "peak_mb": peak}))
"""

SIDES = ("parent", "change")


def sample(tree: Path, argv: list) -> dict:
    """One fresh process running argv on tree."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(tree / "src")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode:
        sys.stderr.write(f"{tree}: {argv} failed:\n{done.stderr}")
        sys.exit(2)
    return json.loads(done.stdout)


def summary(parent: list, change: list) -> dict:
    """Medians and quartiles of both sides, the parent's interquartile
    range and the rounds the change won."""
    out = {}
    for side, xs in zip(SIDES, (parent, change)):
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        out[side] = {"median": med, "q1": q1, "q3": q3}
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    out["won"] = sum(c < p for p, c in zip(parent, change))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("rounds", type=int)
    parser.add_argument("jobs", type=json.loads, help="a JSON list of CLI argument lists")
    args = parser.parse_args(argv)
    if args.rounds < 1 or not args.jobs or not all(isinstance(job, list) for job in args.jobs):
        parser.error("ROUNDS must be at least 1 and JOBS a nonempty list of argument lists")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cpu = {(side, j): [] for side in SIDES for j in range(len(args.jobs))}
    peak = {key: [] for key in cpu}
    outputs = [set() for _ in args.jobs]
    for r in range(args.rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for j, job in enumerate(args.jobs):
            for side in order:
                s = sample(trees[side], job)
                cpu[side, j].append(s["cpu"])
                peak[side, j].append(s["peak_mb"])
                outputs[j].add((s["code"], s["stdout"]))
    report = {"rounds": args.rounds, "jobs": []}
    for j, job in enumerate(args.jobs):
        entry = {"argv": job, "same_output": len(outputs[j]) == 1}
        entry.update(summary(cpu["parent", j], cpu["change", j]))
        entry["peak_mb"] = {
            side: None if None in peak[side, j] else statistics.median(peak[side, j]) for side in SIDES
        }
        report["jobs"].append(entry)
    totals = [[sum(xs) for xs in zip(*(cpu[side, j] for j in range(len(args.jobs))))] for side in SIDES]
    report["total"] = summary(*totals)
    print(json.dumps(report))
    return 0 if all(entry["same_output"] for entry in report["jobs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
