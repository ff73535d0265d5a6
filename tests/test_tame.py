"""Tameness degrees: worked examples, agreement with a brute-force conic
oracle, invariance properties, and the finiteness reports."""

import random
from fractions import Fraction
from itertools import combinations

from selfsim.instances.lamplighter import LampInstance
from selfsim.ring import DensePoly
from selfsim.tame import (
    WREATH_TAMENESS_NOTE,
    finiteness_report,
    positive_combination_exists,
    sigma_c_for_lamp,
    tame_degree,
)


def P(p, *coeffs):
    return DensePoly(p, coeffs)


def lamp_with_n(n, p=2):
    polys = {
        1: [P(2, 0, 1)],
        2: [P(2, 0, 1), P(2, 1, 1, 1)],
        3: [P(2, 0, 1), P(2, 1, 1, 1), P(2, 1, 1, 0, 1)],
        4: [P(2, 0, 1), P(2, 1, 1, 1), P(2, 1, 1, 0, 1), P(2, 1, 0, 1, 1)],
    }[n]
    return LampInstance(p, polys)


# -- oracle -------------------------------------------------------------------


def _oracle_pair(a, b) -> bool:
    # c1 a + c2 b = 0, c_i > 0  <=>  b is a negative multiple of a
    ratio = None
    for x, y in zip(a, b):
        if (x == 0) != (y == 0):
            return False
        if x != 0:
            r = -Fraction(y) / Fraction(x)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None and ratio > 0


def _oracle_triple(a, b, c) -> bool:
    # scale c's coefficient to 1 and solve the 2-variable system exactly
    dim = len(a)
    for i in range(dim):
        for j in range(i + 1, dim):
            det = a[i] * b[j] - a[j] * b[i]
            if det == 0:
                continue
            rhs1, rhs2 = -c[i], -c[j]
            c1 = Fraction(rhs1 * b[j] - rhs2 * b[i], det)
            c2 = Fraction(a[i] * rhs2 - a[j] * rhs1, det)
            if c1 <= 0 or c2 <= 0:
                return False
            return all(c1 * a[k] + c2 * b[k] + c[k] == 0 for k in range(dim))
    # a, b proportional: fall back to a dense positive grid search
    grid = [Fraction(num, 8) for num in range(1, 65)]
    for c1 in grid:
        for c2 in grid:
            if all(c1 * a[k] + c2 * b[k] + c[k] == 0 for k in range(dim)):
                return True
    return False


def test_feasibility_matches_oracle_on_pairs_and_triples():
    rng = random.Random(3)
    pool = [
        tuple(Fraction(rng.randrange(-3, 4)) for _ in range(3)) for _ in range(40)
    ]
    pool = [v for v in pool if any(v)]
    for a, b in combinations(pool[:18], 2):
        assert positive_combination_exists([a, b]) == _oracle_pair(a, b)
    for a, b, c in combinations(pool[:14], 3):
        assert positive_combination_exists([a, b, c]) == _oracle_triple(a, b, c)


# -- worked examples -----------------------------------------------------------


def test_tame_degree_triple_example():
    pts = [(1, 0), (0, 1), (-1, -2)]
    assert tame_degree(pts, 5) == 2
    # the triple conically spans the origin with coefficients (1, 2, 1)
    assert positive_combination_exists(pts)


def test_tame_degree_antipodal_pair():
    assert tame_degree([(1,), (-1,)], 5) == 1


def test_tame_degree_single_point():
    assert tame_degree([(1, 0)], 7) == 7


# -- sigma sets of the metabelian family ------------------------------------------


def test_sigma_c_n1():
    sigma = sigma_c_for_lamp(lamp_with_n(1))
    assert sigma == ((Fraction(1),), (Fraction(-1),))


def test_sigma_c_n2():
    sigma = sigma_c_for_lamp(lamp_with_n(2))
    assert sigma == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(-1), Fraction(-2)),
    )


def test_sigma_c_degrees_enter_negated():
    sigma = sigma_c_for_lamp(lamp_with_n(3))
    assert sigma[-1] == (Fraction(-1), Fraction(-2), Fraction(-3))


def test_tame_degree_equals_n():
    for n in (1, 2, 3, 4):
        inst = lamp_with_n(n)
        sigma = sigma_c_for_lamp(inst)
        assert tame_degree(sigma, n + 1) == n


def test_tame_degree_invariance():
    rng = random.Random(5)
    inst = lamp_with_n(3)
    pts = list(sigma_c_for_lamp(inst))
    base = tame_degree(pts, 4)
    for _ in range(10):
        scaled = [
            tuple(x * Fraction(rng.randrange(1, 7), rng.randrange(1, 7)) for x in v)
            for v in pts
        ]
        rng.shuffle(scaled)
        assert tame_degree(scaled, 4) == base


# -- finiteness reports -------------------------------------------------------------


def test_report_n1_not_finitely_presented():
    rep = finiteness_report(lamp_with_n(1))
    assert rep["tame_degree"] == 1
    assert rep["fp_type"] == 1
    assert rep["finitely_presented"] is False
    assert rep["basis"] == "theorem"


def test_report_n2_finitely_presented():
    rep = finiteness_report(lamp_with_n(2))
    assert rep["fp_type"] == 2
    assert rep["finitely_presented"] is True


def test_report_n3():
    rep = finiteness_report(lamp_with_n(3))
    assert rep["fp_type"] == 3 and rep["finitely_presented"]


def test_wreath_note_is_static():
    assert "never 3-tame" in WREATH_TAMENESS_NOTE
