"""Triangular-matrix family: transversal combinatorics, inversion closure,
membership/endomorphism behavior, and the bounded-degree state closure of
the diagonal generators."""

import random

import pytest

from selfsim.engine import decompose, product_rule_check, transversal_validate
from selfsim.instances import InstanceConfigError, load_config
from selfsim.instances.borel import BorelInstance
from selfsim.matrix import TriMat
from selfsim.ring import DensePoly, NotDivisible


def P(p, *coeffs):
    return DensePoly(p, coeffs)


def make(m, p, n=2):
    polys = [DensePoly.x(p)]
    if n >= 2:
        polys.append(P(2, 1, 1, 1) if p == 2 else P(3, 2, 1, 1))
    return BorelInstance(p, m, polys)


def test_constructor_validates():
    with pytest.raises(InstanceConfigError):
        BorelInstance(2, 2, [DensePoly.x(2), P(2, 1, 1)])
    with pytest.raises(InstanceConfigError):
        BorelInstance(2, 1, [DensePoly.x(2)])
    with pytest.raises(InstanceConfigError):
        load_config({"family": "borel", "p": 3, "m": 4, "polys": [[0, 1]]})  # 3^10 cosets


def test_load_config():
    inst = load_config({"family": "borel", "p": 2, "m": 2, "polys": [[0, 1], [1, 1, 1]]})
    assert isinstance(inst, BorelInstance)


def test_transversal_sizes():
    assert make(2, 2).degree == 2
    assert make(2, 3).degree == 3
    assert make(3, 2).degree == 16
    assert len(make(3, 2).transversal) == 16


def test_transversal_validates():
    rng = random.Random(3)
    for m, p in ((2, 2), (2, 3), (3, 2)):
        inst = make(m, p)
        sample = [inst.random_element(rng, length=4) for _ in range(8)]
        assert transversal_validate(inst, sample)


def test_group_laws_random():
    rng = random.Random(5)
    inst = make(3, 2)
    e = inst.identity()
    for _ in range(40):
        a = inst.random_element(rng, 4)
        b = inst.random_element(rng, 4)
        c = inst.random_element(rng, 4)
        assert inst.multiply(inst.multiply(a, b), c) == inst.multiply(a, inst.multiply(b, c))
        assert inst.multiply(a, inst.invert(a)) == e


def test_center_normalization_collapses_scalars():
    # multiplying by a scalar diagonal changes nothing
    inst = make(2, 2)
    g = inst.random_element(random.Random(7), 4)
    scaled = inst.multiply(g, inst.generators()["x1_0"])
    scaled = inst.multiply(scaled, inst.generators()["x2_0"])
    # x1_0 * x2_0 = diag(f_0, f_0) = scalar f_0
    assert scaled == g


# -- h membership and the endomorphism ------------------------------------------


def _elementary(inst, i, j, fr):
    rows = [
        [inst.ring.one if a == b else inst.ring.zero for b in range(inst.m)]
        for a in range(inst.m)
    ]
    rows[i][j] = fr
    return inst.make_element(TriMat(inst.ring, rows), inst._unit_ident)


def test_h_member_cases():
    inst2 = make(2, 2)
    assert inst2.h_member(inst2.identity())
    piv = inst2.ring.from_poly(inst2.ring.pivot)
    assert inst2.h_member(_elementary(inst2, 0, 1, piv))
    assert not inst2.h_member(_elementary(inst2, 0, 1, inst2.ring.one))
    inst3 = make(3, 2)
    # distance 2 needs (x-1)^2
    assert not inst3.h_member(_elementary(inst3, 0, 2, piv3(inst3, 1)))
    assert inst3.h_member(_elementary(inst3, 0, 2, piv3(inst3, 2)))


def piv3(inst, k):
    return inst.ring.from_poly(inst.ring.pivot_pow(k))


def test_endo_divides_entries():
    inst = make(2, 2)
    x = inst.ring.from_poly(DensePoly.x(2))
    piv = inst.ring.from_poly(inst.ring.pivot)
    g = _elementary(inst, 0, 1, piv * x)
    img = inst.endo_f(g)
    assert img.n_part.rows[0][1] == x
    assert inst.endo_f(inst.identity()) == inst.identity()


def test_endo_fixes_scalar_center():
    # scalar diagonals are fixed (they are the identity element here)
    inst = make(2, 2)
    scalar = inst.multiply(inst.generators()["x1_1"], inst.generators()["x2_1"])
    assert scalar == inst.identity()
    assert inst.endo_f(scalar) == inst.identity()


def test_endo_raises_off_h():
    inst = make(2, 2)
    with pytest.raises(NotDivisible):
        inst.endo_f(_elementary(inst, 0, 1, inst.ring.one))


def test_endo_is_homomorphism_on_h():
    rng = random.Random(11)
    inst = make(3, 2)
    for _ in range(25):
        a = inst.random_h_element(rng, 3)
        b = inst.random_h_element(rng, 3)
        assert inst.h_member(a) and inst.h_member(b)
        lhs = inst.endo_f(inst.multiply(a, b))
        rhs = inst.multiply(inst.endo_f(a), inst.endo_f(b))
        assert lhs == rhs


# -- coset index: closed form vs exhaustive oracle --------------------------------


def test_coset_index_closed_form_matches_search():
    rng = random.Random(13)
    for m, p in ((2, 2), (2, 3), (3, 2)):
        inst = make(m, p)
        for t in inst.transversal:
            assert inst.coset_index(t) == inst.coset_index_exhaustive(t)
        for _ in range(40):
            g = inst.random_element(rng, 4)
            assert inst.coset_index(g) == inst.coset_index_exhaustive(g)


# -- Claim-style checks -------------------------------------------------------------


def test_claim1_inverse_stays_in_transversal():
    for m, p in ((2, 2), (2, 3), (3, 2)):
        assert make(m, p).claim1_check()


def test_u_generators_have_trivial_states():
    for m, p in ((2, 2), (3, 2)):
        assert make(m, p).u_states_trivial_check()


def test_claim2_small():
    inst = make(2, 2)
    for k in (1, 2):
        for s in (0, 1):
            assert inst.claim2_check(k, s)


def test_claim2_start_element_in_delta():
    inst = make(3, 2)
    for k in (1, 2, 3):
        for s in (0, 1):
            assert inst.in_delta(inst.diagonal_generator(k, s), k, s)


def test_delta_size():
    inst = make(3, 2)
    assert inst.delta_size(1, 0) == 4 ** 3  # deg f_0 = 1
    assert inst.delta_size(1, 1) == 8 ** 3  # deg f_1 = 2


def test_product_rule_borel():
    rng = random.Random(17)
    inst = make(2, 2)
    for _ in range(15):
        g = inst.random_element(rng, 4)
        h = inst.random_element(rng, 4)
        assert product_rule_check(inst, g, h, 3)


def test_decompose_u_is_transversal_permutation():
    # right multiplication maps the transversal to itself: cofactors trivial
    inst = make(3, 2)
    dec = decompose(inst, inst.generators()["u1"])
    assert all(s == inst.identity() for s in dec.states)
    assert not dec.perm.is_identity


def test_automaton_simulation_matches_action():
    import itertools

    from selfsim.engine import act_on_word, states_bfs

    inst = make(2, 2)
    g = inst.diagonal_generator(1, 1)
    aut = states_bfs(inst, g, inst.delta_size(1, 1))
    for word in itertools.product(range(2), repeat=6):
        assert aut.simulate(word) == act_on_word(inst, g, word)
