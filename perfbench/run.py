"""selfsim benchmark: seeded, closed-loop CLI job lists with output checks.

    python3 perfbench/run.py --workload cli_short|univariate|wreath \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs one job at a time, each
in a fresh child process (`python -m selfsim.cli ...`, or the bench-owned
`prule.py` script), with `PYTHONPATH=src` and a fixed `PYTHONHASHSEED`.
Every job's exit code and stdout sha256 are checked against
`goldens.json`, recorded by `record.py`; a mismatch counts in `failed`.
Per-job wall time comes from the perf counter around the child, peak RSS
and CPU time from `os.wait4`.

--trace 0 measures `setup_s` (the summed `selfsim build` over the
workload's configs, SETUP_REPS times, median), then runs the job list in
passes until another pass would take the run, set-up included, past
--seconds.  The first pass runs every job; later passes run only the
jobs whose median so far is under SHORT_JOB_S, since one start of the
interpreter is too noisy to time and machine speed drifts over seconds.
A job's time is the median of its samples; `wall_s`, the time to run the
job list once, is the sum of those medians, and `job_s.*` are taken over
them.

--trace 1 runs the job list once untraced and once under `child.py`,
which wraps each layer's functions, and prints the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The line before it records the run environment.  Full results,
per-job rows and the traced spans go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import pick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
HASH_SEED = "0"
SETUP_REPS = 3
SHORT_JOB_S = 1.5
IMPORT_REPS = 7
RUN_DEADLINE_S = 170  # a run must end within 180 s; later jobs are killed
WORKLOADS = ("cli_short", "univariate", "wreath")

END_TO_END = [
    ("wall_s", "s"),
    ("job_s.geomean", "s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

TIMED = [  # per-layer names reported with .calls and .self_s
    "cli.parse_expr", "cli.eval_expr", "engine.Instance.elem_pow",
    "instances.load_config", "ring.DensePoly.is_irreducible",
    "ring.DensePoly.mul", "ring.DensePoly.divmod", "ring.DensePoly.pow",
    "ring.canonicalize", "ring.divide_exact",
    "ring.SFraction.add", "ring.SFraction.mul", "ring.SFraction.mul_unit",
    "ring.SFraction.reduce_mod_pivot_pow",
    "ring.MultiLaurent.mul", "ring.MultiLaurent.divexact_univariate",
    "ring.MultiLocalizedRing.fraction",
    "ring.MultiSFraction.add", "ring.MultiSFraction.mul",
    "ring.MultiSFraction.mul_monomial", "ring.MultiSFraction.mul_g_power",
    "matrix.TriMat.mul", "matrix.tri_inverse", "matrix.PolyMat.mul",
    "matrix.PolyMat.inverse_gl", "matrix.conj_by_A",
] + [
    f"instances.{fam}.{op}"
    for fam in ("borel", "affine", "lamplighter", "wreath")
    for op in ("multiply", "invert", "coset_index", "h_member", "endo_f")
] + [
    "engine.decompose", "engine.product_rule_check", "engine.states_bfs",
    "engine.portrait", "engine.act_on_word", "engine.faithfulness_probe",
    "tame.tame_degree",
]
SELF_ONLY = [
    "ring.validate_config", "engine.Instance.transversal",
    "engine.transversal_validate", "verify.run_suite",
    "verify.word_bijectivity_check", "tame.finiteness_report",
]
CALLS_ONLY = ["ring.is_prime"]

PER_LAYER = (
    [(f"{n}.calls", "count") for n in TIMED]
    + [(f"{n}.self_s", "s") for n in TIMED]
    + [(f"{n}.self_s", "s") for n in SELF_ONLY]
    + [(f"{n}.calls", "count") for n in CALLS_ONLY]
    + [
        ("ring.DensePoly.new.calls", "count"),
        ("instances.borel.multiply.per_decompose", "ratio"),
        ("matrix.tri_inverse.per_decompose", "ratio"),
        ("engine.decompose.memo_hit_ratio", "ratio"),
        ("engine.decompose.memo_entries", "count"),
        ("engine.product_rule.memo_entries", "count"),
        ("engine.states_bfs.states", "count"),
        ("runtime.gc.collections", "count"),
        ("runtime.gc_s", "s"),
        ("proc.import_s", "s"),
        ("proc.cpu_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no program, no goldens)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def job_key(job) -> str:
    return json.dumps(job)


class Runner:
    """Runs jobs one at a time and checks them against the goldens."""

    def __init__(self, goldens: dict, workload: str, budget_s: float = RUN_DEADLINE_S):
        self.expected = goldens["expected"]
        self.env = child_env()
        OUT.mkdir(exist_ok=True)
        self.trace_dir = OUT / f"trace_{workload}"
        self.stderr_path = OUT / f"stderr_{workload}.txt"
        self.rows: list[dict] = []
        self.deadline = perf_counter() + budget_s

    def argv(self, job, trace_path=None) -> list[str]:
        kind, rest = job[0], job[1:]
        if trace_path is not None:
            return [sys.executable, str(BENCH / "child.py"), str(trace_path), kind, *rest]
        if kind == "cli":
            return [sys.executable, "-m", "selfsim.cli", *rest]
        if kind == "prule":
            return [sys.executable, str(BENCH / "prule.py"), *rest]
        raise BenchError(f"unknown job kind {kind!r}")

    def run(self, job, phase: str, trace_path=None) -> dict:
        with open(self.stderr_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                self.argv(job, trace_path), cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            timer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        want = self.expected.get(job_key(job))
        digest = hashlib.sha256(out).hexdigest()
        ok = want is not None and want["exit"] == code and want["sha256"] == digest
        row = {
            "phase": phase, "job": job, "exit": code, "sha256": digest, "ok": ok,
            "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024,
        }
        if not ok:
            row["stderr_tail"] = self.stderr_path.read_bytes()[-400:].decode(errors="replace")
        self.rows.append(row)
        return row

    def run_pass(self, jobs, phase: str, traced: bool = False) -> tuple[float, list[dict]]:
        if traced:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        t0 = perf_counter()
        rows = []
        for i, job in enumerate(jobs):
            trace_path = None
            if traced:
                trace_path = self.trace_dir / f"{i}.json"
                trace_path.unlink(missing_ok=True)
            rows.append(self.run(job, phase, trace_path))
        return perf_counter() - t0, rows


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "PYTHONHASHSEED": HASH_SEED,
    }


def end_to_end(runner: Runner, setup, jobs, seconds: float) -> tuple[dict, dict]:
    start = perf_counter()
    setup_sums = []
    for _ in range(SETUP_REPS):
        setup_sums.append(sum(runner.run(["cli", "build", c], "setup")["wall_s"] for c in setup))
    samples: list[list[float]] = [[] for _ in jobs]
    rss = 0.0
    passes = 0
    todo = range(len(jobs))
    while todo:
        for i in todo:
            row = runner.run(jobs[i], "measure")
            samples[i].append(row["wall_s"])
            rss = max(rss, row["peak_rss_mb"])
        passes += 1
        todo = [i for i, t in enumerate(samples) if statistics.median(t) < SHORT_JOB_S]
        next_pass = sum(statistics.median(samples[i]) for i in todo)
        if perf_counter() - start + next_pass > seconds:
            break
    job_s = [statistics.median(t) for t in samples]
    values = {
        "wall_s": sum(job_s),
        "job_s.geomean": math.exp(statistics.fmean(math.log(x) for x in job_s)),
        "job_s.p50": statistics.median(job_s),
        "job_s.p90": (
            statistics.quantiles(job_s, n=10, method="inclusive")[-1] if len(job_s) > 1 else job_s[0]
        ),
        "setup_s": statistics.median(setup_sums),
        "peak_rss_mb": rss,
    }
    counts = {
        "passes": passes,
        "jobs": len(jobs),
        "job_samples": sum(map(len, samples)),
        "setup_reps": SETUP_REPS,
        "setup_configs": len(setup),
    }
    return values, counts


def import_seconds(env: dict) -> float:
    """Median time of a fresh `import selfsim.cli` minus a bare start."""

    def timed(code: str) -> float:
        times = []
        for _ in range(IMPORT_REPS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    return timed("import selfsim.cli") - timed("pass")


def per_layer(runner: Runner, jobs) -> tuple[dict, dict]:
    plain_wall, plain_rows = runner.run_pass(jobs, "untraced")
    traced_wall, _ = runner.run_pass(jobs, "traced", traced=True)
    stats: dict[str, list] = {}
    counters: Counter = Counter()
    spans = 0
    for i in range(len(jobs)):
        path = runner.trace_dir / f"{i}.json"
        if not path.exists():  # the child died; its row already counts as failed
            continue
        with open(path) as fh:
            trace = json.load(fh)
        for name, (calls, self_s) in trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in trace["counters"].items():
            counters[name] += value
        spans += len(trace["spans"])

    def calls(name):
        return stats.get(name, [0, 0.0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in TIMED + CALLS_ONLY:
        values[f"{name}.calls"] = calls(name)
    for name in TIMED + SELF_ONLY:
        values[f"{name}.self_s"] = stats.get(name, [0, 0.0])[1]
    misses = counters["engine.decompose.borel_misses"]
    values.update(
        {
            "ring.DensePoly.new.calls": counters["ring.DensePoly.new.calls"],
            "instances.borel.multiply.per_decompose": ratio(
                counters["instances.borel.multiply.in_decompose"], misses
            ),
            "matrix.tri_inverse.per_decompose": ratio(
                counters["matrix.tri_inverse.in_decompose"], misses
            ),
            "engine.decompose.memo_hit_ratio": ratio(
                counters["engine.decompose.hits"], calls("engine.decompose")
            ),
            "engine.decompose.memo_entries": counters["engine.decompose.memo_entries"],
            "engine.product_rule.memo_entries": counters["engine.product_rule.memo_entries"],
            "engine.states_bfs.states": counters["engine.states_bfs.states"],
            "runtime.gc.collections": counters["runtime.gc.collections"],
            "runtime.gc_s": counters["runtime.gc_s"],
            "proc.import_s": import_seconds(runner.env),
            "proc.cpu_s": sum(r["cpu_s"] for r in plain_rows),
            "trace.overhead_ratio": traced_wall / plain_wall,
        }
    )
    samples = {"jobs": len(jobs), "spans_kept": spans, "untraced_wall_s": plain_wall,
               "traced_wall_s": traced_wall}
    return values, samples


def measure(workload: str, seed: int, seconds: float, trace: bool, jobs=None) -> dict:
    """Run one benchmark run and return the full result record."""
    if not (ROOT / "src" / "selfsim" / "cli.py").is_file():
        raise BenchError(f"no selfsim sources under {ROOT / 'src'}")
    with open(BENCH / "goldens.json") as fh:
        goldens = json.load(fh)
    spec = goldens["workloads"][workload]
    if jobs is None:
        jobs = pick(spec["slots"], seed)
    env = environment(workload, seed)
    runner = Runner(goldens, workload)
    # Compile the bytecode once, outside any timed region.
    warm = [sys.executable, "-c", "import selfsim.cli, selfsim.tame, selfsim.instances.borel, "
            "selfsim.instances.affine, selfsim.instances.lamplighter, selfsim.instances.wreath"]
    if subprocess.run(warm, cwd=ROOT, env=runner.env).returncode != 0:
        raise BenchError("selfsim does not import")
    if trace:
        values, samples = per_layer(runner, jobs)
        names = PER_LAYER
    else:
        values, samples = end_to_end(runner, spec["setup"], jobs, seconds)
        names = END_TO_END
    failed = 0
    for row in runner.rows:
        if not row["ok"]:
            failed += 1
            want = goldens["expected"].get(job_key(row["job"]))
            sys.stderr.write(f"MISMATCH {row['job']}: exit {row['exit']}, expected {want}\n"
                             f"{row['stderr_tail']}\n")
    return {
        "env": env,
        "samples": samples,
        "fail_ratio": failed / len(runner.rows),
        "rows": runner.rows,
        "result": {
            "correct": failed == 0,
            "attempted": len(runner.rows),
            "failed": failed,
            "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": record["env"], "samples": record["samples"],
                      "fail_ratio": record["fail_ratio"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
