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
D = diag(phi(q)^{-1}, 1).  The checks on drawn elements are in
tests/test_embedding_properties.py.
"""

from pathlib import Path

import pytest

from selfsim.instances import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PAIRS = {
    lamp: (load_config(CONFIGS / f"{lamp}.json"), load_config(CONFIGS / f"{borel}.json"))
    for lamp, borel in (("lamplighter_p2_n2", "borel_m2_p2"), ("lamplighter_p3_n2", "borel_m2_p3"))
}


def psi(borel, g):
    r = {"num": g.r.num.to_json(), "den": list(g.r.den)}
    return borel.from_literal({"n": [[[], r], [[], []]], "d": [{"exps": [-e for e in g.q]}, {}]})


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_psi_maps_the_transversal_to_the_transversal_in_order(pair):
    lamp, borel = PAIRS[pair]
    assert [psi(borel, t) for t in lamp.transversal] == list(borel.transversal)
    assert psi(borel, lamp.identity()) == borel.identity()
