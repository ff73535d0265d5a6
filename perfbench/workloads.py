"""Job pools of the three benchmark workloads.

A job is a list of strings.  Its first element names how it runs:

* ``cli``   -- ``python -m selfsim.cli <rest>``;
* ``prule`` -- ``python perfbench/prule.py <rest>``, a script that calls
  ``engine.product_rule_check`` on a bounded number of seeded pairs,
  because the CLI can only run the full 100-pair core suite.

A workload is a list of *slots*; each slot holds a small pool of candidate
jobs.  ``record.py`` builds the pools (words are drawn from each family's
``generators()`` names with a fixed pool seed) and stores them, with the
exit code and stdout digest of every candidate, in ``goldens.json``.  A
benchmark run with ``--seed n`` picks one candidate per slot, so every job
it runs has a recorded golden, and the job list keeps the same shape, and
roughly the same cost, for every seed.

The cost of a portrait is set by how many distinct elements it decomposes:
a word whose states repeat is served from the memo, and across random
words that count varies a hundredfold.  Portrait pools therefore keep only
words within 25% of the median count among PORTRAIT_DRAWS draws, so every
seed runs a portrait of about the same size.
"""

from __future__ import annotations

import random
import statistics

SHIPPED = [
    "configs/affine_n3_p2.json",
    "configs/borel_m2_p2.json",
    "configs/borel_m2_p3.json",
    "configs/borel_m3_p2.json",
    "configs/lamplighter_p2_n1.json",
    "configs/lamplighter_p2_n2.json",
    "configs/lamplighter_p2_n3.json",
    "configs/lamplighter_p2_n4.json",
    "configs/lamplighter_p3_n2.json",
    "configs/wreath_base_p2_d2.json",
    "configs/wreath_localized_p2_d2.json",
]
INVALID = "configs/invalid_lamplighter.json"
LAMPLIGHTERS = [c for c in SHIPPED if "lamplighter" in c]

# Larger Borel and localized-wreath instances, kept out of configs/.
BOREL_M3_P3 = "perfbench/configs/borel_m3_p3.json"
BOREL_M4_P2 = "perfbench/configs/borel_m4_p2.json"
WREATH_P3 = "perfbench/configs/wreath_localized_p3_d2.json"
WREATH_P2 = "configs/wreath_localized_p2_d2.json"

WORDS_PER_SLOT = 8
PORTRAIT_DRAWS = 96
VERIFY_SEEDS = ("0", "1", "2")
# The core suite's cost moves by up to a quarter with its sampling seed, and
# it is the largest job of both workloads that run it, so it keeps seed 0.
CORE_SEEDS = ("0",)
AUTOMATON_CAP = "64"

# Family suites that finish in well under a second on these configs.
SHORT_SUITES = (
    [(c, s) for c in LAMPLIGHTERS for s in ("lamplighter", "tame")]
    + [("configs/borel_m2_p2.json", "borel"), ("configs/borel_m2_p3.json", "borel")]
    + [("configs/affine_n3_p2.json", "affine")]
    + [("configs/wreath_base_p2_d2.json", "wreath"), (WREATH_P2, "wreath")]
)

UNIVARIATE_CORE = [
    "configs/borel_m2_p2.json",
    "configs/borel_m2_p3.json",
    "configs/lamplighter_p3_n2.json",
    "configs/lamplighter_p2_n4.json",
    "configs/affine_n3_p2.json",
]


def word(rng: random.Random, names: list[str], length: int) -> str:
    """A word of `length` generator letters with exponents in {1, -1, 2}."""
    out = []
    for _ in range(length):
        name = rng.choice(names)
        exp = rng.choice((1, 1, -1, -1, 2))
        out.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(out)


def word_pool(tag: str, names: list[str], length: int, draws: int = WORDS_PER_SLOT) -> list[str]:
    rng = random.Random(tag)
    return [word(rng, names, length) for _ in range(draws)]


def build_pools(gens, finite_state, portrait_work):
    """Return {workload: {"setup": [config, ...], "slots": [[job, ...], ...]}}.

    `gens(config)` gives the sorted non-identity generator names of a
    config; `finite_state(config)` gives the names whose state set closes
    within AUTOMATON_CAP states; `portrait_work(config, word, depth)` gives
    the number of distinct elements the portrait decomposes.
    """

    def decompose(config, tag, length, depth=None):
        if not depth:
            words = word_pool(f"{tag}:{config}", gens(config), length)
            return [["cli", "decompose", config, w] for w in words]
        words = word_pool(f"{tag}:{config}", gens(config), length, PORTRAIT_DRAWS)
        work = [portrait_work(config, w, depth) for w in words]
        mid = statistics.median_low(work)
        words = [w for w, n in zip(words, work) if 3 * mid <= 4 * n <= 5 * mid][:WORDS_PER_SLOT]
        return [["cli", "decompose", config, w, "--depth", str(depth)] for w in words]

    def verify(config, suite, seeds=VERIFY_SEEDS):
        return [["cli", "verify", config, "--suite", suite, "--seed", s] for s in seeds]

    cli_short = [[["cli", "build", c]] for c in SHIPPED + [INVALID]]
    for c in SHIPPED:
        for k in range(3):
            cli_short.append(decompose(c, f"short{k}", 3))
        cli_short.append(decompose(c, "portrait", 2, depth=2))
        known = gens(c)
        unknown = [f"{w} zz{k}" for k, w in enumerate(word_pool(f"unknown:{c}", known, 1))]
        cli_short.append([["cli", "decompose", c, w] for w in unknown])
        names = finite_state(c)
        if names:
            cli_short.append(
                [["cli", "automaton", c, n, "--cap", AUTOMATON_CAP] for n in names]
            )
    cli_short.append([["cli", "decompose", INVALID, "u"]])
    cli_short.append([["cli", "tame", INVALID]])
    for c in LAMPLIGHTERS:
        cli_short.append([["cli", "tame", c]])
    for c, suite in SHORT_SUITES:
        cli_short.append(verify(c, suite))

    # The core suites, the longest jobs, go last: the short jobs' first samples
    # then come before them and their repeats after, which spreads the
    # samples over the whole run.
    borel_m3_p2 = "configs/borel_m3_p2.json"
    univariate = [
        decompose(borel_m3_p2, "depth3", 2, depth=3),
        decompose(BOREL_M3_P3, "depth2", 3, depth=2),
    ]
    for k in range(2):
        univariate.append(decompose(BOREL_M4_P2, f"m4p2-{k}", 3))
    closing = finite_state(borel_m3_p2)
    for n in gens(borel_m3_p2):
        if n.startswith("x") and n in closing:  # the diagonal generators
            univariate.append([["cli", "automaton", borel_m3_p2, n, "--cap", AUTOMATON_CAP]])
    univariate.append(
        [
            ["prule", borel_m3_p2, "--pairs", "3", "--depth", "2", "--seed", str(s)]
            for s in range(WORDS_PER_SLOT)
        ]
    )
    univariate += [verify(c, "core", CORE_SEEDS) for c in UNIVARIATE_CORE]

    wreath = [
        verify(WREATH_P2, "wreath"),
        verify(WREATH_P3, "wreath"),
        decompose(WREATH_P2, "portrait", 3, depth=5),
        decompose(WREATH_P3, "portrait", 3, depth=3),
    ]
    for k in range(2):
        wreath.append(decompose(WREATH_P2, f"word{k}", 5))
        wreath.append(decompose(WREATH_P3, f"word{k}", 5))
    wreath.append(verify("configs/wreath_base_p2_d2.json", "core", CORE_SEEDS))
    wreath.append(verify(WREATH_P2, "core", CORE_SEEDS))

    return {
        "cli_short": {"setup": SHIPPED, "slots": cli_short},
        "univariate": {
            "setup": UNIVARIATE_CORE + [borel_m3_p2, BOREL_M3_P3, BOREL_M4_P2],
            "slots": univariate,
        },
        "wreath": {
            "setup": [WREATH_P2, "configs/wreath_base_p2_d2.json", WREATH_P3],
            "slots": wreath,
        },
    }


def pick(slots, seed: int) -> list[list[str]]:
    """One candidate per slot, chosen by the benchmark seed."""
    rng = random.Random(seed)
    return [slot[rng.randrange(len(slot))] for slot in slots]
