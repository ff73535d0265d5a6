"""Acceptance criteria, one test per criterion.

Every check is exact (no numerical tolerances); each criterion also pins
a wall-clock budget and prints a single PASS/FAIL line, so running

    pytest tests/test_acceptance.py -v -s

gives the one-line-per-criterion summary.
"""

import itertools
import random
import time
from contextlib import contextmanager

from selfsim.engine import (
    CapExceeded,
    MealyAutomaton,
    act_on_word,
    decompose,
    faithfulness_probe,
    product_rule_check,
    states_bfs,
    transversal_validate,
)
from selfsim.instances.affine import AffineInstance
from selfsim.instances.borel import BorelInstance
from selfsim.instances.lamplighter import LampInstance
from selfsim.instances.wreath import WreathInstance
from selfsim.ring import DensePoly, validate_config
from selfsim.tame import finiteness_report, sigma_c_for_lamp, tame_degree
from selfsim.verify import word_bijectivity_check


def P(p, *coeffs):
    return DensePoly(p, coeffs)


@contextmanager
def criterion(num, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_seconds else "FAIL (over time budget)"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({elapsed:.2f}s, budget {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {num} exceeded {limit_seconds}s"


def quadratic_for_p3():
    """First monic quadratic over F_3 admissible for the metabelian family."""
    for c0, c1 in itertools.product(range(3), repeat=2):
        f = DensePoly(3, (c0, c1, 1))
        if validate_config(3, [DensePoly.x(3), f], require_one_at_one=True).ok:
            return f
    raise AssertionError("no admissible quadratic found")


def test_criterion_1_lamplighter_reproduction():
    with criterion(1, "lamplighter-reproduction", 1.0):
        inst = LampInstance(2, [DensePoly.x(2)])
        gens = inst.generators()
        dec_u = decompose(inst, gens["u"])
        assert dec_u.perm == (1, 0)
        assert all(s == inst.identity() for s in dec_u.states)
        g = inst.invert(gens["x0"])
        dec_g = decompose(inst, g)
        assert dec_g.perm == (0, 1)
        u_inv = inst.invert(gens["u"])
        assert dec_g.states == (g, inst.multiply(u_inv, g))
        aut = states_bfs(inst, g, 8)
        assert isinstance(aut, MealyAutomaton)
        for word in itertools.product(range(2), repeat=6):
            assert aut.simulate(word) == act_on_word(inst, g, word)


def test_criterion_2_power_identities():
    with criterion(2, "power-identities", 5.0):
        rng = random.Random(2024)
        for p in (2, 3):
            inst = LampInstance(p, [DensePoly.x(p)])
            lambdas = [
                DensePoly(p, [rng.randrange(p) for _ in range(6)]) for _ in range(50)
            ]
            assert inst.power_identity_check(6, lambdas)


def test_criterion_3_y_set_closure():
    with criterion(3, "bounded-degree-closure", 10.0):
        cases = [
            LampInstance(2, [DensePoly.x(2)]),
            LampInstance(2, [DensePoly.x(2), P(2, 1, 1, 1)]),
            LampInstance(3, [DensePoly.x(3), quadratic_for_p3()]),
        ]
        assert quadratic_for_p3() == P(3, 2, 1, 1)
        for inst in cases:
            for j in range(inst.n):
                assert inst.yj_closure_check(j)


def test_criterion_4_triangular_combinatorics():
    with criterion(4, "triangular-family-combinatorics", 60.0):
        f2 = P(2, 1, 1, 1)
        f3 = P(3, 2, 1, 1)
        sizes = {}
        for m, p, f1 in ((2, 2, f2), (2, 3, f3), (3, 2, f2)):
            inst = BorelInstance(p, m, [DensePoly.x(p), f1])
            sizes[(m, p)] = len(inst.transversal)
            assert len(inst.transversal) == p ** sum(i * (m - i) for i in range(1, m))
            assert inst.claim1_check()
        assert sizes == {(2, 2): 2, (2, 3): 3, (3, 2): 16}
        for m in (2, 3):
            inst = BorelInstance(2, m, [DensePoly.x(2), f2])
            for k in range(1, m + 1):
                for s in range(inst.n):
                    assert inst.claim2_check(k, s)


def test_criterion_5_affine_closure():
    with criterion(5, "affine-family-closure", 30.0):
        rng = random.Random(5)
        inst = AffineInstance(2, 3)
        sample = inst.delta_sample(1)
        assert sample
        assert inst.delta_closure_check(sample, 1)
        from selfsim.matrix import conj_by_A

        for _ in range(200):
            b = inst.random_element(rng, 5).b
            c = b
            for _ in range(3):
                c = conj_by_A(c)
            assert c == b
        assert inst.degree == 2
        assert transversal_validate(inst, [inst.random_element(rng, 4) for _ in range(10)])
        for _ in range(500):
            g = inst.random_element(rng, 4)
            assert inst.coset_index(g) == inst.coset_index_exhaustive(g)


def _shipped_instances():
    return [
        BorelInstance(2, 2, [DensePoly.x(2), P(2, 1, 1, 1)]),
        AffineInstance(2, 3),
        LampInstance(2, [DensePoly.x(2)]),
        LampInstance(2, [DensePoly.x(2), P(2, 1, 1, 1)]),
        WreathInstance(2, 2),
        WreathInstance(2, 2, g=P(2, 1, 1, 1)),
    ]


def test_criterion_6_engine_laws():
    with criterion(6, "engine-laws", 60.0):
        rng = random.Random(6)
        for inst in _shipped_instances():
            for _ in range(100):
                g = inst.random_element(rng)
                h = inst.random_element(rng)
                assert product_rule_check(inst, g, h, 4)
            # level-6 bijectivity implies bijectivity at every level <= 6
            # by prefix compatibility
            assert word_bijectivity_check(inst, inst.random_element(rng), 6)
            sample = [inst.random_element(rng) for _ in range(10)]
            assert transversal_validate(inst, sample)


def test_criterion_7_wreath_families():
    with criterion(7, "wreath-families", 60.0):
        rng = random.Random(7)
        flat = WreathInstance(2, 2)
        loc = WreathInstance(2, 2, g=P(2, 1, 1, 1))
        for inst in (flat, loc):
            for _ in range(200):
                a = inst.random_h_element(rng)
                b = inst.random_h_element(rng)
                assert inst.endo_f(inst.multiply(a, b)) == inst.multiply(
                    inst.endo_f(a), inst.endo_f(b)
                )
        for _ in range(100):
            g = loc.random_h_element(rng)
            assert loc.endo_f(g) == loc.localized_endo_with_slack(g, 1)
        probed = 0
        while probed < 100:
            g = loc.random_word(rng, rng.randrange(1, 7))
            if g == loc.identity():
                continue
            probed += 1
            assert faithfulness_probe(loc, g, 8) is not None


def test_criterion_8_tameness():
    with criterion(8, "tameness-degrees", 5.0):
        polys = {
            1: [P(2, 0, 1)],
            2: [P(2, 0, 1), P(2, 1, 1, 1)],
            3: [P(2, 0, 1), P(2, 1, 1, 1), P(2, 1, 1, 0, 1)],
            4: [P(2, 0, 1), P(2, 1, 1, 1), P(2, 1, 1, 0, 1), P(2, 1, 0, 1, 1)],
        }
        for n in (1, 2, 3, 4):
            inst = LampInstance(2, polys[n])
            assert tame_degree(sigma_c_for_lamp(inst), n + 1) == n
            rep = finiteness_report(inst)
            assert rep["tame_degree"] == n
            assert rep["fp_type"] == n
            assert rep["finitely_presented"] is (n >= 2)
