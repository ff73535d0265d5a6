"""Named verification suites over a configured instance.

Each check returns a CheckResult; a suite is a list of checks.  All
randomness comes from an explicitly seeded generator, so runs are
reproducible; the CLI exposes the seed.

The `core` suite runs the engine-level laws every family must satisfy
(transversal validity, the product rule, word-action bijectivity,
first-level transitivity, the endomorphism being a homomorphism on the
subgroup).  Family suites run the structural facts particular to each
construction: inversion closure and bounded-degree state sets for the
triangular family, shift-conjugation identities for the affine one,
closed-form decompositions and power identities for the metabelian one,
well-definedness and faithfulness probes for the wreath families, and
tameness degrees for the finiteness reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import engine
from .engine import CapExceeded, decompose, states_bfs
from .ring import DensePoly


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def word_images(inst, g, level: int) -> list:
    """The images under g of all words of the given length, in the order
    of itertools.product(range(m), repeat=level): one walk down the tree
    that decomposes each prefix's state once, where `act_on_word` on
    every word would decompose it once per word through it."""
    nodes = [((), g)]
    for _ in range(level):
        deeper = []
        for image, h in nodes:
            dec = decompose(inst, h)
            images = dec.perm.images
            deeper += [(image + (images[i],), s) for i, s in enumerate(dec.states)]
        nodes = deeper
    return [image for image, _ in nodes]


def word_bijectivity_check(inst, g, level: int) -> bool:
    """Extensional bijectivity of the action on all words of the given
    length (prefix compatibility makes this cover the shorter levels)."""
    images = word_images(inst, g, level)
    return len(images) == inst.degree ** level == len(set(images))


def _sample_elements(inst, rng, count):
    return [inst.random_element(rng) for _ in range(count)]


def core_suite(inst, rng) -> list[CheckResult]:
    out = []
    pairs, depth = 100, 4
    sample = _sample_elements(inst, rng, 20)
    out.append(
        CheckResult(
            "transversal_valid",
            engine.transversal_validate(inst, sample),
            f"degree {inst.degree}, sampled {len(sample)} elements",
        )
    )
    ok = True
    for _ in range(pairs):
        g = inst.random_element(rng)
        h = inst.random_element(rng)
        if not engine.product_rule_check(inst, g, h, depth):
            ok = False
            break
    out.append(
        CheckResult("product_rule", ok, f"{pairs} random pairs at depth {depth}")
    )
    # word-action bijectivity at the largest affordable level <= 6
    level = 6
    while inst.degree ** level > 70000:
        level -= 1
    g = inst.random_element(rng)
    out.append(
        CheckResult(
            "act_on_word_bijective",
            word_bijectivity_check(inst, g, level),
            f"level {level}, all {inst.degree ** level} words",
        )
    )
    gens = [g for name, g in inst.generators().items() if name != "e"]
    out.append(
        CheckResult("transitive_on_level_one", engine.transitivity_check(inst, gens), "")
    )
    ok = True
    for _ in range(30):
        a = inst.random_h_element(rng)
        b = inst.random_h_element(rng)
        if not (inst.h_member(a) and inst.h_member(b)):
            ok = False
            break
        if inst.endo_f(inst.multiply(a, b)) != inst.multiply(
            inst.endo_f(a), inst.endo_f(b)
        ):
            ok = False
            break
    out.append(CheckResult("endo_homomorphism_on_h", ok, "30 random subgroup pairs"))
    return out


def borel_suite(inst, rng) -> list[CheckResult]:
    out = []
    out.append(
        CheckResult(
            "transversal_size_p_to_l",
            len(inst.transversal) == inst.p ** inst.l_exponent,
            f"p^l = {inst.p}^{inst.l_exponent} = {inst.degree}",
        )
    )
    out.append(CheckResult("inverse_closure_of_transversal", inst.claim1_check(), ""))
    ok = True
    detail = []
    for k in range(1, inst.m + 1):
        for s in range(inst.n):
            good = inst.claim2_check(k, s)
            detail.append(f"(k={k},s={s}):{'ok' if good else 'FAIL'}")
            ok = ok and good
    out.append(CheckResult("bounded_degree_state_closure", ok, " ".join(detail)))
    out.append(CheckResult("superdiagonal_generators_trivial_states", inst.u_states_trivial_check(), ""))
    ok = all(
        inst.coset_index(g) == inst.coset_index_exhaustive(g)
        for g in (inst.random_element(rng, 4) for _ in range(50))
    )
    out.append(CheckResult("coset_reduction_matches_search", ok, "50 random elements"))
    return out


def affine_suite(inst, rng) -> list[CheckResult]:
    from .matrix import conj_by_A

    out = []
    out.append(
        CheckResult("degree_is_p", inst.degree == inst.p, f"degree {inst.degree}")
    )
    ok = True
    for _ in range(200):
        b = inst.random_element(rng, 5).b
        c = b
        for _ in range(inst.n):
            c = conj_by_A(c)
        if c != b:
            ok = False
            break
    out.append(CheckResult("conjugation_has_order_n", ok, "200 random matrices"))
    sample = inst.delta_sample(1)
    out.append(
        CheckResult(
            "degree_bounded_state_closure",
            inst.delta_closure_check(sample, 1),
            f"{len(sample)} sample elements at bound 1",
        )
    )
    ok = all(
        inst.coset_index(g) == inst.coset_index_exhaustive(g)
        for g in (inst.random_element(rng, 5) for _ in range(500))
    )
    out.append(CheckResult("coset_formula_matches_search", ok, "500 random elements"))
    return out


def lamplighter_suite(inst, rng) -> list[CheckResult]:
    out = []
    ok = True
    gens = inst.generators()
    shapes = [gens["u"], inst.invert(gens["u"])]
    for j in range(inst.n):
        xj = gens[f"x{j}"]
        shapes += [xj, inst.invert(xj)]
        for _ in range(10):
            lam = DensePoly(
                inst.p, [rng.randrange(inst.p) for _ in range(rng.randrange(5))]
            )
            shapes.append(inst.multiply(inst.u_power(lam), inst.invert(xj)))
    for g in shapes:
        cf = inst.closed_form_decompose(g)
        eng = decompose(inst, g)
        if cf.perm != eng.perm or cf.states != eng.states:
            ok = False
            break
    out.append(CheckResult("closed_form_decompositions", ok, f"{len(shapes)} shapes"))
    lambdas = [
        DensePoly(inst.p, [rng.randrange(inst.p) for _ in range(rng.randrange(6))])
        for _ in range(50)
    ]
    out.append(
        CheckResult(
            "power_identities", inst.power_identity_check(6, lambdas), "i <= 6, 50 exponents"
        )
    )
    ok = all(inst.yj_closure_check(j) for j in range(inst.n))
    out.append(CheckResult("y_set_state_closed", ok, f"j < {inst.n}"))
    ok = True
    for _ in range(30):
        g = inst.random_element(rng)
        h = inst.random_h_element(rng)
        if not inst.h_member(inst.multiply(inst.multiply(g, h), inst.invert(g))):
            ok = False
            break
    out.append(CheckResult("subgroup_normal_on_samples", ok, "30 random conjugations"))
    if inst.p == 2 and inst.n == 1:
        g = inst.invert(inst.generators()["x0"])
        res = states_bfs(inst, g, 8)
        ok = (
            not isinstance(res, CapExceeded)
            and len(res) == 2
            and res.outputs in (((0, 1), (1, 0)), ((1, 0), (0, 1)))
        )
        out.append(CheckResult("classical_two_state_machine", ok, ""))
    return out


def wreath_suite(inst, rng) -> list[CheckResult]:
    out = []
    ok = True
    for _ in range(200):
        a = inst.random_h_element(rng)
        b = inst.random_h_element(rng)
        if inst.endo_f(inst.multiply(a, b)) != inst.multiply(
            inst.endo_f(a), inst.endo_f(b)
        ):
            ok = False
            break
    out.append(CheckResult("endo_homomorphism", ok, "200 random subgroup pairs"))
    if inst.localized:
        ok = True
        for _ in range(100):
            g = inst.random_h_element(rng)
            if inst.endo_f(g) != inst.localized_endo_with_slack(g, 1):
                ok = False
                break
        out.append(
            CheckResult("localized_endo_well_defined", ok, "100 samples, two powers")
        )
    ok = True
    probed = 0
    for _ in range(100):
        g = inst.random_word(rng, rng.randrange(1, 7))
        if g == inst.identity():
            continue
        probed += 1
        if engine.faithfulness_probe(inst, g, 8) is None:
            ok = False
            break
    out.append(
        CheckResult("faithfulness_probe", ok, f"{probed} nontrivial words, depth <= 8")
    )
    return out


def tame_suite(inst, rng) -> list[CheckResult]:
    from .tame import finiteness_report, sigma_c_for_lamp, tame_degree

    out = []
    sigma = sigma_c_for_lamp(inst)
    degree = tame_degree(sigma, inst.n + 1)
    out.append(
        CheckResult(
            "tame_degree_equals_n", degree == inst.n, f"degree {degree}, n {inst.n}"
        )
    )
    rep = finiteness_report(inst)
    out.append(
        CheckResult(
            "report_consistent",
            rep["fp_type"] == degree and rep["finitely_presented"] == (degree >= 2),
            str({k: rep[k] for k in ("tame_degree", "fp_type", "finitely_presented", "basis")}),
        )
    )
    from fractions import Fraction

    pts = list(sigma.points)
    ok = True
    for _ in range(5):
        scaled = [
            tuple(x * Fraction(rng.randrange(1, 6), rng.randrange(1, 6)) for x in v)
            for v in pts
        ]
        rng.shuffle(scaled)
        if tame_degree(scaled, inst.n + 1) != degree:
            ok = False
            break
    out.append(CheckResult("tame_degree_scale_invariant", ok, "5 random rescalings"))
    return out


# suite name -> (family the suite requires, or None for any; suite function)
SUITES = {
    "core": (None, core_suite),
    "borel": ("borel", borel_suite),
    "affine": ("affine", affine_suite),
    "lamplighter": ("lamplighter", lamplighter_suite),
    "wreath": ("wreath", wreath_suite),
    "tame": ("lamplighter", tame_suite),
}


def run_suite(name: str, inst, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name} (pick from {', '.join(SUITES)})")
    family, suite = SUITES[name]
    if family is not None and inst.family != family:
        raise ValueError(f"suite requires a {family} instance, got {inst.family}")
    return suite(inst, random.Random(seed))
