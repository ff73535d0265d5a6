"""The embedding psi of tests/test_embedding.py on drawn lamplighter
elements: psi is a homomorphism and commutes with `decompose`, portraits
and state closures."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_embedding import PAIRS, psi  # noqa: E402

from selfsim.engine import CapExceeded, decompose, portrait, states_bfs  # noqa: E402
from selfsim.instances.lamplighter import LampElem  # noqa: E402
from selfsim.ring import DensePoly  # noqa: E402

EMBEDDING = settings(max_examples=100, deadline=None)


@st.composite
def lamp_elements(draw, lamp):
    """(r, q) with r a numerator of degree <= 4 over a denominator of
    exponents <= 2, and q in [-3, 3]^n."""
    num = DensePoly(lamp.p, draw(st.lists(st.integers(0, lamp.p - 1), max_size=5)))
    den = tuple(draw(st.lists(st.integers(0, 2), min_size=lamp.n, max_size=lamp.n)))
    q = draw(st.lists(st.integers(-3, 3), min_size=lamp.n, max_size=lamp.n))
    return LampElem(lamp.ring.fraction(num, den), q)


@pytest.mark.parametrize("pair", sorted(PAIRS))
@EMBEDDING
@given(data=st.data())
def test_psi_is_a_homomorphism(pair, data):
    lamp, borel = PAIRS[pair]
    g, h = data.draw(lamp_elements(lamp)), data.draw(lamp_elements(lamp))
    assert psi(borel, lamp.multiply(g, h)) == borel.multiply(psi(borel, g), psi(borel, h))
    assert psi(borel, lamp.invert(g)) == borel.invert(psi(borel, g))


@pytest.mark.parametrize("pair", sorted(PAIRS))
@EMBEDDING
@given(data=st.data())
def test_psi_commutes_with_decompose(pair, data):
    lamp, borel = PAIRS[pair]
    g = data.draw(lamp_elements(lamp))
    dec, image = decompose(lamp, g), decompose(borel, psi(borel, g))
    assert dec.perm == image.perm
    assert [psi(borel, s) for s in dec.states] == list(image.states)
    assert portrait(lamp, g, 3) == portrait(borel, psi(borel, g), 3)


@pytest.mark.parametrize("pair", sorted(PAIRS))
@EMBEDDING
@given(data=st.data())
def test_psi_matches_the_state_closures(pair, data):
    lamp, borel = PAIRS[pair]
    g = data.draw(lamp_elements(lamp))
    closure, image = states_bfs(lamp, g, 40), states_bfs(borel, psi(borel, g), 40)
    if isinstance(closure, CapExceeded):
        assert image == closure
    else:
        assert [psi(borel, s) for s in closure.elements] == list(image.elements)
        assert (closure.transitions, closure.outputs) == (image.transitions, image.outputs)
