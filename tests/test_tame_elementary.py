"""tame_degree, from the elementary vectors of the dependence space, against
the subset and Fourier-Motzkin oracle of tests/test_tame.py on drawn point
sets, at every max_m from 1 to k + 1."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_tame import lamp_with_n, subset_tame_degree  # noqa: E402

from selfsim.tame import sigma_c_for_lamp, tame_degree  # noqa: E402


def vectors(dim):
    return st.tuples(*[st.integers(-3, 3)] * dim).filter(any)


@st.composite
def point_sets(draw):
    """Nonzero points of one dimension 1-4, of five shapes: any points (d = 0
    when they are few and independent, d >= 1 otherwise); points with an
    antipodal pair and positive multiples of drawn points added; positive
    multiples of one ray; a single point; and the empty set."""
    dim = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["any", "antipodes and multiples", "one ray", "single", "empty"]))
    if shape == "empty":
        return []
    if shape == "single":
        return [draw(vectors(dim))]
    if shape == "one ray":
        ray = draw(vectors(dim))
        return [tuple(c * x for x in ray) for c in draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))]
    pts = draw(st.lists(vectors(dim), min_size=1, max_size=5 if shape == "any" else 4))
    if shape == "antipodes and multiples":
        a = draw(st.sampled_from(pts))
        pts.append(tuple(-x for x in a))
        for b in draw(st.lists(st.sampled_from(pts), max_size=2)):
            pts.append(tuple(draw(st.integers(1, 3)) * x for x in b))
        pts = draw(st.permutations(pts))
    return pts


@settings(max_examples=120, deadline=None, derandomize=True)
@given(point_sets())
def test_tame_degree_matches_the_subset_oracle(pts):
    for m in range(1, len(pts) + 2):
        assert tame_degree(pts, m) == subset_tame_degree(pts, m)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.randoms(use_true_random=False))
def test_rescaled_and_shuffled_family_sets_match_the_oracle(n, rng):
    # the rescalings and shuffles of the tame suite: degree n throughout
    scaled = [
        tuple(x * Fraction(rng.randrange(1, 6), rng.randrange(1, 6)) for x in v)
        for v in sigma_c_for_lamp(lamp_with_n(n))
    ]
    rng.shuffle(scaled)
    for m in range(1, n + 2):
        assert tame_degree(scaled, m) == subset_tame_degree(scaled, m) == min(m, n)
