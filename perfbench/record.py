"""Rebuild perfbench/goldens.json: the job pools and their expected outputs.

    python3 perfbench/record.py

Run from the root of a checkout of the commit whose outputs are the
reference.  It builds every workload's pools (see workloads.py), runs each
distinct job once the way the benchmark does, and stores its exit code
and stdout sha256.  Regenerating the goldens on a later commit would hide
an output change, which is exactly what they exist to catch.
"""

from __future__ import annotations

import json
import platform
import sys

from run import BENCH, HASH_SEED, ROOT, Runner, job_key
from workloads import AUTOMATON_CAP, build_pools

sys.path.insert(0, str(ROOT / "src"))

from selfsim.cli import eval_expr, parse_expr  # noqa: E402
from selfsim.engine import CapExceeded, decompose, states_bfs  # noqa: E402
from selfsim.instances import load_config  # noqa: E402


def generator_names(config: str) -> list[str]:
    """Sorted generator names, one per distinct element (aliases dropped)."""
    seen, names = set(), []
    for name, g in sorted(load_config(str(ROOT / config)).generators().items()):
        if name != "e" and g not in seen:
            seen.add(g)
            names.append(name)
    return names


def finite_state(config: str) -> list[str]:
    inst = load_config(str(ROOT / config))
    gens = inst.generators()
    return [
        n
        for n in sorted(gens)
        if n != "e" and not isinstance(states_bfs(inst, gens[n], int(AUTOMATON_CAP)), CapExceeded)
    ]


def portrait_work(config: str, word: str, depth: int) -> int:
    """Distinct elements decomposed by `decompose CONFIG WORD --depth DEPTH`."""
    inst = load_config(str(ROOT / config))
    level = {eval_expr(inst, parse_expr(word))}
    seen = set(level)
    for _ in range(depth - 1):
        level = {s for g in level for s in decompose(inst, g).states}
        seen |= level
    return len(seen)


def main() -> int:
    pools = build_pools(generator_names, finite_state, portrait_work)
    jobs = {}
    for spec in pools.values():
        for config in spec["setup"]:
            jobs[job_key(["cli", "build", config])] = ["cli", "build", config]
        for slot in spec["slots"]:
            for job in slot:
                jobs[job_key(job)] = job
    runner = Runner({"expected": {}}, "record", budget_s=24 * 3600)
    expected = {}
    for i, (key, job) in enumerate(sorted(jobs.items())):
        row = runner.run(job, "record")
        expected[key] = {"exit": row["exit"], "sha256": row["sha256"]}
        print(f"[{i + 1}/{len(jobs)}] exit {row['exit']} {row['wall_s']:7.3f}s {key}", flush=True)
    goldens = {
        "recorded_with": {"python": platform.python_version(), "PYTHONHASHSEED": HASH_SEED},
        "workloads": pools,
        "expected": expected,
    }
    with open(BENCH / "goldens.json", "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
