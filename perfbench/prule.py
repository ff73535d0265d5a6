"""Product-rule check on a bounded number of seeded pairs.

    python perfbench/prule.py CONFIG --pairs K --depth D --seed S

The core suite checks 100 pairs at depth 4, which runs for tens of
minutes on borel_m3_p2; this script runs the same check on K pairs drawn with
`random_element` from `random.Random(S)`, and reports the run as partial.
It prints one JSON object and exits 0 when every pair passes, 2 otherwise
(the CLI's verification-failure code).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from selfsim import engine
from selfsim.instances import load_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="prule")
    parser.add_argument("config")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--depth", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    inst = load_config(args.config)
    rng = random.Random(args.seed)
    results = []
    for _ in range(args.pairs):
        g = inst.random_element(rng)
        h = inst.random_element(rng)
        results.append(engine.product_rule_check(inst, g, h, args.depth))
    report = {
        "config": args.config,
        "depth": args.depth,
        "partial": True,
        "passed": results,
        "seed": args.seed,
    }
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return 0 if all(results) else 2


if __name__ == "__main__":
    sys.exit(main())
