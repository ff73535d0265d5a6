"""Affine family: closed-form coset index vs search, shift/conjugation
endomorphism, and bounded-degree state closure."""

import random
import warnings

import pytest

from selfsim.engine import (
    ContractViolation,
    Instance,
    NotInH,
    decompose,
    product_rule_check,
    transversal_validate,
)
from selfsim.instances import MAX_AFFINE_DIM, InstanceConfigError, load_config
from selfsim.instances.affine import AffineElem, AffineInstance
from selfsim.matrix import PolyMat, conj_by_A, rho
from selfsim.ring import DensePoly


def make(n=3, p=2):
    return AffineInstance(p, n)


def test_constructor_validation():
    with pytest.raises(InstanceConfigError):
        AffineInstance(4, 3)
    with pytest.raises(InstanceConfigError):
        AffineInstance(2, 1)
    # n = 2 builds without a warning; the summary carries the note
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = AffineInstance(2, 2)
    assert caught == []
    assert "not finitely generated" in inst.describe()["note"]
    assert "note" not in make().describe()


def test_make_element_rejects_off_subgroup():
    inst = make()
    ident = PolyMat.identity(2, 3)
    rows = [list(r) for r in ident.rows]
    rows[0][1] = DensePoly.one(2)
    with pytest.raises(InstanceConfigError):
        inst.make_element(inst._zero_vec, PolyMat(2, rows))
    rows = [list(r) for r in ident.rows]
    rows[0][0] = DensePoly.x(2)
    with pytest.raises(InstanceConfigError):
        inst.make_element(inst._zero_vec, PolyMat(2, rows))


def test_load_config():
    inst = load_config({"family": "affine", "p": 2, "n": 3})
    assert isinstance(inst, AffineInstance)
    assert inst.degree == 2


def test_load_config_bounds_the_dimension():
    assert MAX_AFFINE_DIM == 8
    assert load_config({"family": "affine", "p": 2, "n": MAX_AFFINE_DIM}).n == MAX_AFFINE_DIM
    with pytest.raises(InstanceConfigError, match="n = 9 exceeds the bound 8"):
        load_config({"family": "affine", "p": 2, "n": 9})


def test_group_laws():
    rng = random.Random(3)
    inst = make()
    e = inst.identity()
    for _ in range(40):
        a, b, c = (inst.random_element(rng, 4) for _ in range(3))
        assert inst.multiply(inst.multiply(a, b), c) == inst.multiply(a, inst.multiply(b, c))
        assert inst.multiply(a, inst.invert(a)) == e


def test_transversal_validates():
    rng = random.Random(5)
    for p in (2, 3):
        inst = make(3, p)
        sample = [inst.random_element(rng, 4) for _ in range(10)]
        assert transversal_validate(inst, sample)
        assert inst.degree == p


# -- endomorphism -----------------------------------------------------------------


def test_endo_identity():
    inst = make()
    assert inst.endo_f(inst.identity()) == inst.identity()


def test_endo_n_fold_divides_vector():
    rng = random.Random(7)
    inst = make()
    piv = inst.pivot
    for _ in range(25):
        base = tuple(
            DensePoly(2, [rng.randrange(2) for _ in range(3)]) for _ in range(3)
        )
        v = tuple(e * piv for e in base)
        g = AffineElem(v, PolyMat.identity(2, 3))
        out = g
        for _ in range(3):
            out = inst.endo_f(out)
        assert out.v == base
        assert out.b == g.b


def test_endo_requires_v0_membership():
    inst = make()
    v = (DensePoly.one(2),) + (DensePoly.zero(2),) * 2
    g = AffineElem(v, PolyMat.identity(2, 3))
    with pytest.raises(NotInH):
        inst.endo_f(g)


def test_endo_is_homomorphism_on_h():
    rng = random.Random(9)
    inst = make()
    for _ in range(25):
        a = inst.random_h_element(rng, 4)
        b = inst.random_h_element(rng, 4)
        lhs = inst.endo_f(inst.multiply(a, b))
        rhs = inst.multiply(inst.endo_f(a), inst.endo_f(b))
        assert lhs == rhs


def test_conj_order_three_on_random_group_elements():
    rng = random.Random(11)
    inst = make()
    for _ in range(50):
        b = inst.random_element(rng, 5).b
        c = b
        for _ in range(3):
            c = conj_by_A(c)
        assert c == b


# -- coset index --------------------------------------------------------------------


def test_coset_index_identity_and_translation():
    inst = make(3, 2)
    assert inst.coset_index(inst.identity()) == 0
    assert inst.coset_index(inst.transversal[1]) == 1
    t1 = inst.generators()["t1"]
    assert inst.coset_index(t1) == 1


def test_coset_index_closed_form_matches_search():
    rng = random.Random(13)
    for p in (2, 3):
        inst = make(3, p)
        for _ in range(60):
            g = inst.random_element(rng, 4)
            assert inst.coset_index(g) == inst.coset_index_exhaustive(g)
            for alpha in range(p):
                t = inst.transversal[alpha]
                tg = inst.multiply(t, g)
                assert inst.coset_index(tg) == inst.coset_index_exhaustive(tg)


# -- bounded-degree state sets ---------------------------------------------------------


def test_delta_sample_and_closure():
    inst = make()
    sample = inst.delta_sample(1)
    assert sample
    assert all(inst.in_delta(g, 1) for g in sample)
    assert inst.delta_closure_check(sample, 1)


def test_states_of_delta_elements_stay_in_delta():
    rng = random.Random(17)
    inst = make()
    pool = inst.delta_sample(1)
    for g in pool[:8]:
        for s in decompose(inst, g).states:
            assert inst.in_delta(s, 1)


def test_product_rule_affine():
    rng = random.Random(19)
    inst = make()
    for _ in range(15):
        g = inst.random_element(rng, 4)
        h = inst.random_element(rng, 4)
        assert product_rule_check(inst, g, h, 3)


def test_rho_of_delta_members():
    inst = make()
    for g in inst.delta_sample(1):
        assert rho(g.v) <= 1 and rho(g.b) <= 1


# -- closed-form letters against the generic walk --------------------------------


@pytest.mark.parametrize("n, p", [(3, 2), (3, 3)])
def test_letters_closed_form_matches_generic_oracle(n, p):
    inst = make(n, p)
    rng = random.Random(10 * p + n)
    elems = [inst.random_element(rng, 6) for _ in range(30)]
    elems += [inst.random_h_element(rng) for _ in range(15)]
    elems += [inst.multiply(t, g) for t in inst.transversal for g in elems[:3]]
    assert any(inst.h_member(g) for g in elems) and not all(inst.h_member(g) for g in elems)
    for g in elems:
        assert inst.letters(g) == Instance.letters(inst, g)


def test_letters_reports_a_wrong_coset_formula(monkeypatch):
    inst = make(3, 3)
    g = inst.random_element(random.Random(8))
    right = inst._index
    monkeypatch.setattr(inst, "_index", lambda v1, b11: (right(v1, b11) + 1) % inst.p)
    with pytest.raises(ContractViolation):
        inst.letters(g)
    with pytest.raises(ContractViolation):
        Instance.letters(inst, g)
