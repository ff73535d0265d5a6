"""Triangular-matrix family: transversal combinatorics, inversion closure,
membership/endomorphism behavior, and the bounded-degree state closure of
the diagonal generators."""

import random
from pathlib import Path

import pytest

from selfsim.engine import (
    ContractViolation,
    Instance,
    NotInH,
    decompose,
    product_rule_check,
    transversal_validate,
)
from selfsim.instances import InstanceConfigError, load_config
from selfsim.instances.borel import BorelInstance
from selfsim.ring import DensePoly


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


def _elementary(inst, i, j, poly):
    cells = [[[] for _ in range(inst.m)] for _ in range(inst.m)]
    cells[i][j] = poly.to_json()
    return inst.from_literal({"n": cells})


def test_h_member_cases():
    inst2 = make(2, 2)
    assert inst2.h_member(inst2.identity())
    piv = inst2.ring.pivot
    assert inst2.h_member(_elementary(inst2, 0, 1, piv))
    assert not inst2.h_member(_elementary(inst2, 0, 1, DensePoly.one(2)))
    inst3 = make(3, 2)
    # distance 2 needs (x-1)^2
    assert not inst3.h_member(_elementary(inst3, 0, 2, inst3.ring.pivot_pow(1)))
    assert inst3.h_member(_elementary(inst3, 0, 2, inst3.ring.pivot_pow(2)))


def test_endo_divides_entries():
    inst = make(2, 2)
    x = DensePoly.x(2)
    g = _elementary(inst, 0, 1, inst.ring.pivot * x)
    img = inst.endo_f(g)
    assert img.rows[0][1] == x
    assert inst.endo_f(inst.identity()) == inst.identity()


def test_endo_fixes_scalar_center():
    # scalar diagonals are fixed (they are the identity element here)
    inst = make(2, 2)
    scalar = inst.multiply(inst.generators()["x1_1"], inst.generators()["x2_1"])
    assert scalar == inst.identity()
    assert inst.endo_f(scalar) == inst.identity()


def test_endo_raises_off_h():
    inst = make(2, 2)
    with pytest.raises(NotInH):
        inst.endo_f(_elementary(inst, 0, 1, DensePoly.one(2)))


def test_endo_is_homomorphism_on_h():
    rng = random.Random(11)
    inst = make(3, 2)
    for _ in range(25):
        a = inst.random_h_element(rng)
        b = inst.random_h_element(rng)
        assert inst.h_member(a) and inst.h_member(b)
        lhs = inst.endo_f(inst.multiply(a, b))
        rhs = inst.multiply(inst.endo_f(a), inst.endo_f(b))
        assert lhs == rhs


# -- multiply and invert against naive fraction matrices ---------------------------


def seeded_elements(inst, rng, count):
    """Random generator words, and literals N * D with random fractions
    above the diagonal of N and random diagonal units c * prod f_k^{e_k}."""
    m, n, p = inst.m, inst.n, inst.p
    out = []
    for _ in range(count):
        out.append(inst.random_element(rng, 5))
        cells = [[[] for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                num = [rng.randrange(p) for _ in range(3)]
                cells[i][j] = {"num": num, "den": [rng.randrange(3) for _ in range(n)]}
        d = [{"c": rng.randrange(1, p), "exps": [rng.randrange(-2, 3) for _ in range(n)]}
             for _ in range(m)]
        out.append(inst.from_literal({"n": cells, "d": d}))
    return out


def naive_product(ring, a, b):
    m = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(m)), ring.zero) for j in range(m)]
            for i in range(m)]


def unit_from_exps(inst, d):
    """The product oracle: the leading coefficient of d times
    prod f_k^{e_k}, e = `_unit_exps(d)`."""
    unit = DensePoly.constant(inst.p, d.lead)
    for f, k in zip(inst.ring.polys, inst._unit_exps(d)):
        unit = unit * f**k
    return unit


def is_normalized(inst, g):
    """The element is a matrix whose diagonal entries are rebuilt from the
    exponents `_unit_exps` reads off them, with no f_k dividing every
    entry and a monic corner."""
    rows = g.rows
    if any(rows[j][j] != unit_from_exps(inst, rows[j][j]) for j in range(inst.m)):
        return False
    upper = [rows[i][j] for i in range(inst.m) for j in range(i, inst.m)]
    return rows[0][0].is_monic and not any(
        all((e % f).is_zero for e in upper) for f in inst.ring.polys
    )


@pytest.mark.parametrize("m, p", [(2, 2), (2, 3), (3, 2)])
def test_multiply_and_invert_match_naive_fraction_matrices(m, p):
    # entries(g) is M / M[0][0], whose corner is 1: products and inverses
    # of these fraction matrices need no scaling to compare
    inst = make(m, p)
    ring = inst.ring
    elems = seeded_elements(inst, random.Random(100 * m + p), 12)
    ident = inst.entries(inst.identity())
    for a, b in zip(elems, elems[1:] + elems[:1]):
        ab, inv = inst.multiply(a, b), inst.invert(a)
        assert inst.entries(ab) == naive_product(ring, inst.entries(a), inst.entries(b))
        assert naive_product(ring, inst.entries(a), inst.entries(inv)) == ident
        assert is_normalized(inst, a) and is_normalized(inst, ab) and is_normalized(inst, inv)
        assert inst.multiply(a, inv) == inst.identity() == inst.multiply(inv, a)
        assert inst.invert(inv) == a


def test_literal_is_normalized_modulo_scalars():
    # a scalar diagonal is the identity, whatever its unit
    inst = make(2, 3)
    for d in ([{"c": 2}, {"c": 2}], [{"c": 1, "exps": [1, -2]}] * 2):
        assert inst.from_literal({"d": d}) == inst.identity()
    g = inst.from_literal({"n": [[[], [1]], [[], []]], "d": [{"c": 2, "exps": [1, 0]}, {}]})
    assert g.rows[0] == (DensePoly.x(3), DensePoly.constant(3, 2))
    assert inst.render(g) == "[[1,2/(x)],[0,2/(x)]]"
    # as N * D scaled to a first diagonal entry 1
    cell = {"num": [1, 1], "den": [1, 2]}
    d = [{"c": 2, "exps": [1, -1]}, {"c": 1, "exps": [-2, 3]}]
    g = inst.from_literal({"n": [[[], cell], [[], []]], "d": d})
    assert inst.render(g) == (
        "[[1,(2x^5+2x^3+x+2)/(x)^4],[0,(2x^8+2x^7+x^6+2x^5+2x^4+x^3+x^2+x+2)/(x)^3]]"
    )


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
    assert dec.perm != tuple(range(inst.degree))


def test_automaton_simulation_matches_action():
    import itertools

    from selfsim.engine import act_on_word, states_bfs

    inst = make(2, 2)
    g = inst.diagonal_generator(1, 1)
    aut = states_bfs(inst, g, inst.delta_size(1, 1))
    for word in itertools.product(range(2), repeat=6):
        assert aut.simulate(word) == act_on_word(inst, g, word)


# -- closed-form letters against the generic walk --------------------------------

ROOT = Path(__file__).resolve().parent.parent
BOREL_CONFIGS = [
    "configs/borel_m2_p2",
    "configs/borel_m2_p3",
    "configs/borel_m3_p2",
    "perfbench/configs/borel_m3_p3",
    "perfbench/configs/borel_m4_p2",
]


@pytest.mark.parametrize(
    "config, count",
    [
        ("configs/borel_m2_p2", 20),
        ("configs/borel_m2_p3", 20),
        ("configs/borel_m3_p2", 10),
        ("perfbench/configs/borel_m3_p3", 4),
        ("perfbench/configs/borel_m4_p2", 1),
    ],
)
def test_letters_closed_form_matches_generic_oracle(config, count):
    inst = load_config(ROOT / f"{config}.json")
    rng = random.Random(count)
    elems = seeded_elements(inst, rng, count) + [inst.random_h_element(rng) for _ in range(count)]
    elems.append(inst.multiply(inst.transversal[-1], elems[0]))
    assert any(inst.h_member(g) for g in elems) and not all(inst.h_member(g) for g in elems)
    assert any(any(inst._unit_exps(g.rows[i][i])) for g in elems for i in range(inst.m))
    for g in elems:
        images, states = inst.letters(g)
        oracle_images, oracle_states = Instance.letters(inst, g)
        assert images == oracle_images
        # states compare as normalized matrices: the closed form's rows,
        # built without a product, equal those the oracle's products
        # normalize to
        assert states == oracle_states


@pytest.mark.parametrize("config", ["configs/borel_m2_p2", "configs/borel_m2_p3", "configs/borel_m3_p2"])
def test_exps_are_the_exponents_of_the_diagonal(config):
    # the exponents that normalization, the coset formula and rendering
    # read off a diagonal entry rebuild it: each diagonal entry is its
    # leading coefficient times prod_k f_k^e_k, e = _unit_exps(entry)
    inst = load_config(ROOT / f"{config}.json")
    rng = random.Random(97)
    sample = []
    for g in seeded_elements(inst, rng, 4):
        h = inst.random_element(rng)
        sample += [g, inst.multiply(g, h), inst.invert(g), inst.endo_f(inst.random_h_element(rng))]
        sample += decompose(inst, g).states
    assert any(any(inst._unit_exps(g.rows[i][i])) for g in sample for i in range(inst.m))
    for g in sample:
        for i, row in enumerate(g.rows):
            assert row[i] == unit_from_exps(inst, row[i])


@pytest.mark.parametrize("config", BOREL_CONFIGS)
def test_inverse_letters_match_inverted_transversal(config):
    # the oracle inverts every transversal element and reads its letter
    inst = load_config(ROOT / f"{config}.json")
    oracle = [0] * inst.degree
    for j, t in enumerate(inst.transversal_inverses):
        oracle[inst._letter(t.rows)] = j
    assert inst._inverse_letters == oracle


def test_letters_reports_a_wrong_coset_formula(monkeypatch):
    inst = make(3, 2)
    g = inst.random_element(random.Random(8), 5)
    right = inst._residue
    monkeypatch.setattr(inst, "_residue", lambda *args: right(*args) + DensePoly.one(inst.p))
    with pytest.raises(ContractViolation):
        inst.letters(g)
    with pytest.raises(ContractViolation):
        Instance.letters(inst, g)


def test_each_product_and_inverse_is_one_matrix_operation(monkeypatch):
    # the traced matrix.TriMat.mul and matrix.tri_inverse counts measure
    # the Borel products and inverses only while each multiply and invert
    # makes exactly one such call
    from selfsim.instances import borel
    from selfsim.matrix import TriMat

    inst = make(3, 2)
    elems = seeded_elements(inst, random.Random(19), 4)
    calls = []
    mul, inverse = TriMat.__mul__, borel.tri_inverse
    monkeypatch.setattr(TriMat, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    monkeypatch.setattr(borel, "tri_inverse", lambda a: calls.append("inverse") or inverse(a))
    for a, b in zip(elems, elems[1:] + elems[:1]):
        inst.multiply(a, b)
        assert calls == ["mul"]
        inst.invert(a)
        assert calls == ["mul", "inverse"]
        calls.clear()
