"""The cross-family embedding of the metabelian family into the
triangular one, as an oracle between two independent closed forms.

With phi(q) = prod f_k^{q_k}, the map

    psi(r, q) = [[phi(q)^{-1}, r], [0, 1]]

sends `lamplighter(p, polys)` into `borel(p, m = 2, polys)`: the product
(r1, q1)(r2, q2) = (r1 + r2 phi(q1)^{-1}, q1 + q2) is the matrix product.
psi maps u^c to the Borel element of the constant c, H into H, and
commutes with the endomorphisms, so it commutes with `decompose`.  The two
sides share no decomposition code: lamplighter's `letters` is the closed
form B + jW, Borel's is the row reduction `_walk`.  The element psi(g) is
built through Borel's literal parser, N = [[1, r], [0, 1]] times
D = diag(phi(q)^{-1}, 1).
"""

from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from selfsim.engine import CapExceeded, decompose, portrait, states_bfs  # noqa: E402
from selfsim.instances import load_config  # noqa: E402
from selfsim.instances.lamplighter import LampElem  # noqa: E402
from selfsim.ring import DensePoly  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PAIRS = {
    lamp: (load_config(CONFIGS / f"{lamp}.json"), load_config(CONFIGS / f"{borel}.json"))
    for lamp, borel in (("lamplighter_p2_n2", "borel_m2_p2"), ("lamplighter_p3_n2", "borel_m2_p3"))
}
EMBEDDING = settings(max_examples=100, deadline=None)


def psi(borel, g):
    r = {"num": g.r.num.to_json(), "den": list(g.r.den)}
    return borel.from_literal({"n": [[[], r], [[], []]], "d": [{"exps": [-e for e in g.q]}, {}]})


@st.composite
def lamp_elements(draw, lamp):
    """(r, q) with r a numerator of degree <= 4 over a denominator of
    exponents <= 2, and q in [-3, 3]^n."""
    num = DensePoly(lamp.p, draw(st.lists(st.integers(0, lamp.p - 1), max_size=5)))
    den = tuple(draw(st.lists(st.integers(0, 2), min_size=lamp.n, max_size=lamp.n)))
    q = draw(st.lists(st.integers(-3, 3), min_size=lamp.n, max_size=lamp.n))
    return LampElem(lamp.ring.fraction(num, den), q)


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_psi_maps_the_transversal_to_the_transversal_in_order(pair):
    lamp, borel = PAIRS[pair]
    assert [psi(borel, t) for t in lamp.transversal] == list(borel.transversal)
    assert psi(borel, lamp.identity()) == borel.identity()


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
