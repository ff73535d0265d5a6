"""Tameness degrees: worked examples, the subset and Fourier-Motzkin
oracle and its own brute-force check, invariance properties, and the
finiteness reports."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from selfsim.instances.lamplighter import LampInstance
from selfsim.ring import DensePoly
from selfsim.tame import (
    WREATH_TAMENESS_NOTE,
    finiteness_report,
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
# tame_degree as the subset search it replaced: every subset of 2 to max_m
# points, each decided by Gaussian elimination on the equalities and
# Fourier-Motzkin elimination of the free variables.  Feasibility of
# sum c_i v_i = 0, c_i > 0 is by homogeneity that of sum c_i v_i = 0,
# c_i >= 1, a rational linear feasibility problem.


def _fourier_motzkin(ineqs: list[tuple[tuple, Fraction]], nvars: int) -> bool:
    """Feasibility of  sum a_j y_j >= rhs  systems by variable elimination."""
    system = ineqs
    for var in range(nvars):
        zeros, pos, neg = [], [], []
        for coeffs, rhs in system:
            c = coeffs[var]
            if c == 0:
                zeros.append((coeffs, rhs))
            elif c > 0:
                pos.append((coeffs, rhs))
            else:
                neg.append((coeffs, rhs))
        new_system = zeros
        for pc, pr in pos:
            for nc, nr in neg:
                # scale to cancel the variable: combine p/|p_c| + n/|n_c|
                a = pc[var]
                b = -nc[var]
                coeffs = tuple(x * b + y * a for x, y in zip(pc, nc))
                new_system.append((coeffs, pr * b + nr * a))
        system = new_system
    return all(rhs <= 0 for _, rhs in system)


def positive_combination_exists(points) -> bool:
    """Whether sum c_i v_i = 0 has a solution with every c_i > 0."""
    pts = [tuple(Fraction(x) for x in v) for v in points]
    k = len(pts)
    if k == 0:
        return False
    dim = len(pts[0])
    # Gaussian elimination on the equality system sum c_i v_i = 0.
    reduced = [[pts[i][r] for i in range(k)] for r in range(dim)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(k):
        pivot_row = None
        for rr in range(r, dim):
            if reduced[rr][c] != 0:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        reduced[r], reduced[pivot_row] = reduced[pivot_row], reduced[r]
        pv = reduced[r][c]
        reduced[r] = [x / pv for x in reduced[r]]
        for rr in range(dim):
            if rr != r and reduced[rr][c] != 0:
                f = reduced[rr][c]
                reduced[rr] = [x - f * y for x, y in zip(reduced[rr], reduced[r])]
        pivot_cols.append(c)
        r += 1
        if r == dim:
            break
    free_cols = [c for c in range(k) if c not in pivot_cols]
    # express c_pivot = -sum over free columns; build the c_i >= 1 system
    # over the free variables
    nfree = len(free_cols)
    ineqs: list[tuple[tuple, Fraction]] = []
    for i in range(k):
        if i in pivot_cols:
            row = reduced[pivot_cols.index(i)]
            coeffs = tuple(-row[c] for c in free_cols)
        else:
            coeffs = tuple(
                Fraction(1) if c == i else Fraction(0) for c in free_cols
            )
        ineqs.append((coeffs, Fraction(1)))
    return _fourier_motzkin(ineqs, nfree)


def subset_tame_degree(points, max_m: int) -> int:
    """tame_degree by trying every subset of 2 to max_m points."""
    pts = list(points)
    for size in range(2, max_m + 1):
        if size > len(pts):
            break
        for subset in combinations(pts, size):
            if positive_combination_exists(subset):
                return size - 1
    return max_m


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


def test_tame_degree_without_dependencies_is_max_m():
    # d = dim ker V = 0: the empty set and independent points
    assert tame_degree([], 3) == 3
    assert tame_degree([(1, 0, 0), (1, 2, 0), (0, -1, 5)], 2) == 2


def test_tame_degree_with_a_larger_dependence_space():
    # d = 3: the smallest dependence, 2 v_0 - v_1 = 0, has mixed signs;
    # v_2 + v_3 + v_4 = 0 is sign-uniform on three points
    pts = [(1, 0), (2, 0), (1, 1), (-1, -2), (0, 1)]
    assert tame_degree(pts, 5) == subset_tame_degree(pts, 5) == 2
    # three points on one ray and its opposite: the antipodal pair decides
    assert tame_degree([(1,), (3,), (2,), (-5,)], 4) == 1


def test_tame_degree_rejects_max_m_below_1():
    with pytest.raises(ValueError, match="max_m"):
        tame_degree([(1,)], 0)


def test_tame_degree_matches_the_subset_oracle():
    # seeded sets with repeated rays, antipodal pairs and positive multiples,
    # at every max_m; tests/test_tame_elementary.py draws more of them
    rng = random.Random(11)
    for _ in range(150):
        dim = rng.randint(1, 4)
        pts = []
        for _ in range(rng.randint(0, 5)):
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(v):
                pts.append(v)
            if pts and rng.random() < 0.2:
                scale = rng.choice([-1, 2])
                pts.append(tuple(scale * x for x in rng.choice(pts)))
        for m in range(1, len(pts) + 2):
            assert tame_degree(pts, m) == subset_tame_degree(pts, m), (pts, m)


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
