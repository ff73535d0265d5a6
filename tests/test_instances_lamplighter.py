"""Closed-form decompositions, power identities, and state-closed subsets
of the metabelian family."""

import itertools
import random

import pytest

from selfsim.engine import (
    CapExceeded,
    ContractViolation,
    Instance,
    MealyAutomaton,
    act_on_word,
    decompose,
    states_bfs,
    transversal_validate,
)
from selfsim.instances import InstanceConfigError, load_config
from selfsim.instances.lamplighter import LampInstance
from selfsim.ring import DensePoly, canonicalize


def P(p, *coeffs):
    return DensePoly(p, coeffs)


def make(p, n):
    polys = {(2, 1): [P(2, 0, 1)],
             (2, 2): [P(2, 0, 1), P(2, 1, 1, 1)],
             (3, 1): [P(3, 0, 1)],
             (3, 2): [P(3, 0, 1), P(3, 2, 1, 1)]}[(p, n)]
    return LampInstance(p, polys)


def test_constructor_rejects_bad_bases():
    with pytest.raises(InstanceConfigError):
        LampInstance(2, [P(2, 0, 1), P(2, 1, 1)])  # x+1 = x-1 over F_2
    with pytest.raises(InstanceConfigError):
        LampInstance(3, [P(3, 0, 1), P(3, 1, 0, 1)])  # f_1(1) = 2


def test_load_config_round_trip():
    inst = load_config({"family": "lamplighter", "p": 2, "polys": [[0, 1]]})
    assert isinstance(inst, LampInstance)
    assert inst.describe()["degree"] == 2


def test_multiplication_convention_reproduces_conjugation():
    # x_j^{-1} u x_j = u^{f_j}: conjugation acts by multiplication with f_j
    inst = make(2, 2)
    gens = inst.generators()
    for j, name in enumerate(("x0", "x1")):
        xj = gens[name]
        conj = inst.multiply(inst.multiply(inst.invert(xj), gens["u"]), xj)
        assert conj.r == inst.ring.from_poly(inst.ring.polys[j])
        assert conj.q == (0,) * inst.n


def test_group_laws_random():
    rng = random.Random(19)
    inst = make(3, 2)
    e = inst.identity()
    for _ in range(100):
        a, b, c = (inst.random_element(rng) for _ in range(3))
        assert inst.multiply(inst.multiply(a, b), c) == inst.multiply(a, inst.multiply(b, c))
        assert inst.multiply(a, inst.invert(a)) == e
        assert inst.multiply(inst.invert(a), a) == e


def test_transversal_validates():
    rng = random.Random(23)
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        inst = make(p, n)
        sample = [inst.random_element(rng) for _ in range(10)]
        assert transversal_validate(inst, sample)


# -- closed forms vs engine ----------------------------------------------------


def test_closed_form_u_and_inverse():
    for p in (2, 3):
        inst = make(p, 1)
        for name in ("u",):
            g = inst.generators()[name]
            for elem in (g, inst.invert(g)):
                cf = inst.closed_form_decompose(elem)
                eng = decompose(inst, elem)
                assert cf.perm == eng.perm and cf.states == eng.states


def test_closed_form_xj_and_inverse():
    for p, n in ((2, 2), (3, 2)):
        inst = make(p, n)
        gens = inst.generators()
        for j in range(n):
            xj = gens[f"x{j}"]
            for elem in (xj, inst.invert(xj)):
                cf = inst.closed_form_decompose(elem)
                eng = decompose(inst, elem)
                assert cf.perm == eng.perm and cf.states == eng.states


def test_closed_form_u_lambda_xj_inverse():
    rng = random.Random(29)
    for p, n in ((2, 2), (3, 2)):
        inst = make(p, n)
        for j in range(n):
            xj_inv = inst.invert(inst.generators()[f"x{j}"])
            for _ in range(25):
                lam = DensePoly(p, [rng.randrange(p) for _ in range(rng.randrange(5))])
                g = inst.multiply(inst.u_power(lam), xj_inv)
                cf = inst.closed_form_decompose(g)
                eng = decompose(inst, g)
                assert cf.perm == eng.perm and cf.states == eng.states


def test_closed_form_rejects_unsupported_shape():
    inst = make(2, 2)
    gens = inst.generators()
    mixed = inst.multiply(gens["x0"], gens["x1"])
    with pytest.raises(ValueError):
        inst.closed_form_decompose(mixed)


def test_sigma_of_xj_is_trivial():
    inst = make(3, 2)
    for name in ("x0", "x1"):
        assert decompose(inst, inst.generators()[name]).perm == tuple(range(inst.degree))


# -- power identities ------------------------------------------------------------


def test_power_identity_base_case():
    # u^x = (u, ..., u) u
    for p in (2, 3):
        inst = make(p, 1)
        dec = decompose(inst, inst.u_power(DensePoly.x(p)))
        assert dec.perm == tuple((i + 1) % p for i in range(p))
        u = inst.generators()["u"]
        assert all(s == u for s in dec.states)


def test_power_identity_constant_lambda():
    inst = make(3, 1)
    dec = decompose(inst, inst.u_power(P(3, 2)))
    assert all(s == inst.identity() for s in dec.states)
    assert dec.perm == tuple((i + 2) % 3 for i in range(3))


def test_power_identities_random():
    rng = random.Random(31)
    for p in (2, 3):
        inst = make(p, 1)
        lambdas = [
            DensePoly(p, [rng.randrange(p) for _ in range(rng.randrange(6))])
            for _ in range(25)
        ]
        assert inst.power_identity_check(6, lambdas)


def test_power_identity_depth_agreement():
    # both sides act identically on words, checked to depth 5
    inst = make(2, 1)
    lam = P(2, 0, 1, 1)  # x^2+x = x(x-1) over F_2
    g = inst.u_power(lam)
    lt = P(2, 0, 1)  # (x^2+x)/(x-1) = x
    rhs_states = inst.u_power(lt)
    for w in itertools.product(range(2), repeat=5):
        img = act_on_word(inst, g, w)
        # lam(1) = 0: trivial level permutation, states act on suffixes
        assert img[0] == w[0]
        assert img[1:] == act_on_word(inst, rhs_states, w[1:])


# -- Y_j closure -----------------------------------------------------------------


def test_yj_membership_bound():
    inst = make(2, 2)
    j = 1
    f1 = inst.ring.polys[1]
    good = inst.multiply(inst.u_power(f1), inst.invert(inst.generators()["x1"]))
    assert inst.y_set_member(good, j)
    too_big = inst.multiply(
        inst.u_power(DensePoly(2, (0, 0, 0, 1))), inst.invert(inst.generators()["x1"])
    )
    assert not inst.y_set_member(too_big, j)


def test_yj_closure_small_cases():
    for p, n in ((2, 1), (2, 2)):
        inst = make(p, n)
        for j in range(n):
            assert inst.yj_closure_check(j)


def test_yj_states_drop_degree():
    # after one decomposition step the polynomial part has degree < deg f_j
    inst = make(2, 2)
    j = 1
    fj = inst.ring.polys[j]
    for g in inst.y_set(j):
        for s in decompose(inst, g).states:
            assert s.r.is_zero or s.r.num.degree < fj.degree


def test_classical_lamplighter_machine():
    inst = make(2, 1)
    g = inst.invert(inst.generators()["x0"])
    aut = states_bfs(inst, g, 8)
    assert isinstance(aut, MealyAutomaton)
    assert len(aut) == 2
    # state 0 = x0^{-1}: inactive (identity output), stays/switches
    # state 1 = u^{-1} x0^{-1}: active (flips), classical lamplighter shape
    assert aut.outputs[0] == (0, 1)
    assert aut.outputs[1] == (1, 0)
    assert aut.transitions[0] == (0, 1)
    assert aut.transitions[1] == (1, 0)


# -- normality of H (sampled; nothing relies on it) --------------------------------


def test_h_normality_spot_check():
    rng = random.Random(37)
    inst = make(3, 2)
    for _ in range(50):
        g = inst.random_element(rng)
        h = inst.random_h_element(rng)
        conj = inst.multiply(inst.multiply(g, h), inst.invert(g))
        assert inst.h_member(conj)


# -- closed-form letters against the generic walk --------------------------------


def basis(p, n):
    """x and the first n-1 monic irreducible polynomials with value 1 at
    1, by degree and then by coefficients."""
    out = [DensePoly.x(p)]
    for deg in itertools.count(2):
        for low in itertools.product(range(p), repeat=deg):
            if len(out) == n:
                return out
            f = DensePoly(p, low + (1,))
            if f.eval(1) == 1 and f.is_irreducible():
                out.append(f)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_letters_closed_form_matches_generic_oracle(p, n):
    inst = LampInstance(p, basis(p, n))
    rng = random.Random(10 * p + n)
    elems = [inst.random_element(rng) for _ in range(20)]
    elems += [inst.random_h_element(rng) for _ in range(10)]
    elems += [inst.multiply(t, g) for t in inst.transversal for g in elems[:3]]
    assert any(inst.h_member(g) for g in elems) and not all(inst.h_member(g) for g in elems)
    assert any(any(g.r.den) for g in elems) and any(min(g.q) < 0 for g in elems)
    for g in elems:
        assert inst.letters(g) == Instance.letters(inst, g)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_multiply_matches_the_two_step_product(p, n):
    # one shift-and-add against a.r + b.r * phi(a.q)^{-1} in two steps
    inst = LampInstance(p, basis(p, n))
    rng = random.Random(100 * p + n)
    elems = [inst.random_element(rng) for _ in range(12)]
    elems += [inst.random_h_element(rng) for _ in range(4)]
    elems += list(inst.transversal) + list(inst.generators().values())
    assert any(not any(g.q) for g in elems) and any(g.r.is_zero for g in elems)
    assert not all(inst.h_member(g) for g in elems)
    for a in elems:
        for b in elems:
            got = inst.multiply(a, b)
            assert got.r == a.r + b.r.mul_unit(1, tuple(-e for e in a.q))
            assert got.q == tuple(x + y for x, y in zip(a.q, b.q))
            c = canonicalize(inst.ring, got.r.num, got.r.den)
            assert (c.num, c.den) == (got.r.num, got.r.den)


def test_letters_reports_a_wrong_coset_formula(monkeypatch):
    inst = make(3, 2)
    g = inst.random_element(random.Random(8))
    right = inst._index
    monkeypatch.setattr(inst, "_index", lambda c: (right(c) + 1) % inst.p)
    with pytest.raises(ContractViolation):
        inst.letters(g)
    with pytest.raises(ContractViolation):
        Instance.letters(inst, g)
