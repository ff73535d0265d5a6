"""Wreath family: endomorphism formulas, homomorphism property on the
subgroup, well-definedness of the localized endomorphism, transversals,
and action probes."""

import random
from pathlib import Path

import pytest

from selfsim.engine import (
    ContractViolation,
    Instance,
    decompose,
    faithfulness_probe,
    product_rule_check,
    transitivity_check,
    transversal_validate,
)
from selfsim.instances import InstanceConfigError, load_config
from selfsim.instances.wreath import NotInH, WreathElem, WreathInstance, validate_localizer
from selfsim.ring import DensePoly, MultiLaurent, MultiSFraction, canonicalize
from selfsim.verify import run_suite

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def P(p, *coeffs):
    return DensePoly(p, coeffs)


def base(p=2, d=2):
    return WreathInstance(p, d)


def localized(p=2, d=2):
    return WreathInstance(p, d, g=P(p, 1, 1, 1))


def mono(inst, exps, c=1):
    return inst.mring.from_laurent(MultiLaurent.monomial(inst.p, inst.d, exps, c))


def test_validate_localizer():
    assert validate_localizer(2, P(2, 1, 1, 1)) == []
    assert validate_localizer(2, P(2, 0, 0, 1))  # monomial x^2
    assert validate_localizer(2, P(2, 1))  # constant
    assert validate_localizer(2, P(2, 1, 1))  # vanishes at 1 over F_2
    with pytest.raises(InstanceConfigError):
        WreathInstance(2, 2, g=P(2, 1, 1))
    with pytest.raises(InstanceConfigError, match="^localized instance requires a polynomial g$"):
        load_config({"family": "wreath", "p": 2, "d": 2, "localized": True})


def test_g_without_localized_is_rejected():
    with pytest.raises(InstanceConfigError, match="^wreath config key 'g' needs \"localized\": true$"):
        load_config({"family": "wreath", "p": 2, "d": 2, "g": [1, 1, 1]})
    with pytest.raises(InstanceConfigError, match="needs"):
        load_config({"family": "wreath", "p": 2, "d": 2, "g": [1, 1, 1], "localized": False})


def test_load_config():
    inst = load_config({"family": "wreath", "p": 2, "d": 2})
    assert isinstance(inst, WreathInstance) and not inst.localized
    inst = load_config(
        {"family": "wreath", "p": 2, "d": 2, "g": [1, 1, 1], "localized": True}
    )
    assert inst.localized and inst.degree == 8


def test_degrees():
    assert base(2, 2).degree == 4
    assert base(3, 2).degree == 9
    assert localized(2, 2).degree == 8


def test_group_laws():
    rng = random.Random(3)
    for inst in (base(), localized(), base(3, 2), base(2, 1)):
        e = inst.identity()
        for _ in range(40):
            a, b, c = (inst.random_element(rng) for _ in range(3))
            assert inst.multiply(inst.multiply(a, b), c) == inst.multiply(
                a, inst.multiply(b, c)
            )
            assert inst.multiply(a, inst.invert(a)) == e


def test_order_p_of_a():
    inst = base(3, 2)
    a = inst.generators()["a"]
    assert inst.elem_pow(a, 3) == inst.identity()


def test_transversals_validate():
    rng = random.Random(5)
    for inst in (base(), localized(), base(3, 1)):
        sample = [inst.random_element(rng) for _ in range(8)]
        assert transversal_validate(inst, sample)


def test_coset_index_closed_form_matches_search():
    rng = random.Random(21)
    for inst in (base(2, 2), base(3, 2), localized(2, 2), WreathInstance(3, 2, g=P(3, 2, 1, 1))):
        for _ in range(60):
            g = inst.random_element(rng)
            assert inst.coset_index(g) == inst.coset_index_exhaustive(g)


# -- base endomorphism -------------------------------------------------------------


def test_endo_on_basic_exponents():
    inst = base(2, 3)
    lift = inst.mring.from_laurent
    # a^{x_1 - 1} -> a
    r = lift(MultiLaurent(2, 3, {(1, 0, 0): 1, (0, 0, 0): 1}))  # x_1 - 1 over F_2
    g = WreathElem(r, (0, 0, 0))
    img = inst.endo_f(g)
    assert img.r == inst.mring.one
    # a^{x_2 - 1} -> identity (x_2 lies in the subgroup lattice)
    r = lift(MultiLaurent(2, 3, {(0, 1, 0): 1, (0, 0, 0): 1}))
    img = inst.endo_f(WreathElem(r, (0, 0, 0)))
    assert img.r.is_zero
    # a^{x_2 x_1 - 1} -> a^{x_3}
    r = lift(MultiLaurent(2, 3, {(1, 1, 0): 1, (0, 0, 0): 1}))
    img = inst.endo_f(WreathElem(r, (0, 0, 0)))
    assert img.r == mono(inst, (0, 0, 1))


def test_endo_on_torsion_free_part():
    inst = base(2, 3)
    zero = inst.mring.zero
    # x_1^p -> x_2, x_2 -> x_3, x_3 -> x_1
    assert inst.endo_f(WreathElem(zero, (2, 0, 0))).q == (0, 1, 0)
    assert inst.endo_f(WreathElem(zero, (0, 1, 0))).q == (0, 0, 1)
    assert inst.endo_f(WreathElem(zero, (0, 0, 1))).q == (1, 0, 0)


def test_endo_rejects_non_members():
    inst = base(2, 2)
    with pytest.raises(NotInH):
        inst.endo_f(WreathElem(inst.mring.one, (0, 0)))
    with pytest.raises(NotInH):
        inst.endo_f(WreathElem(inst.mring.zero, (1, 0)))


def test_endo_homomorphism_on_h():
    rng = random.Random(7)
    for inst in (base(2, 2), base(3, 2), base(2, 3)):
        for _ in range(60):
            a = inst.random_h_element(rng)
            b = inst.random_h_element(rng)
            assert inst.h_member(a) and inst.h_member(b)
            assert inst.endo_f(inst.multiply(a, b)) == inst.multiply(
                inst.endo_f(a), inst.endo_f(b)
            )


# -- localized endomorphism -----------------------------------------------------------


def test_localized_endo_reduces_to_base_on_trivial_denominator():
    rng = random.Random(9)
    loc = localized()
    flat = base()
    for _ in range(40):
        gb = flat.random_h_element(rng)
        gl = WreathElem(loc.mring.from_laurent(gb.r.num), gb.q, (0, 0))
        img_l = loc.endo_f(gl)
        img_b = flat.endo_f(gb)
        assert img_l.r == loc.mring.from_laurent(img_b.r.num)
        assert img_l.q == img_b.q and img_l.y == (0, 0)


def test_localized_endo_clears_denominator_example():
    # a^{x_1 - 1}/g(x_1)^2 -> a/g(x_2)
    loc = localized()
    num = MultiLaurent(2, 2, {(1, 0): 1, (0, 0): 1})
    r = loc.mring.fraction(num, (2, 0))
    g = WreathElem(r, (0, 0), (0, 0))
    img = loc.endo_f(g)
    assert img.r == loc.mring.fraction(MultiLaurent.one(2, 2), (0, 1))


def test_localized_endo_well_defined():
    rng = random.Random(11)
    loc = localized()
    for _ in range(60):
        g = loc.random_h_element(rng)
        assert loc.h_member(g)
        assert loc.endo_f(g) == loc.localized_endo_with_slack(g, 1)
        assert loc.endo_f(g) == loc.localized_endo_with_slack(g, 2)


def test_localized_endo_homomorphism_on_h():
    rng = random.Random(13)
    loc = localized()
    for _ in range(60):
        a = loc.random_h_element(rng)
        b = loc.random_h_element(rng)
        assert loc.endo_f(loc.multiply(a, b)) == loc.multiply(
            loc.endo_f(a), loc.endo_f(b)
        )


def test_localized_endo_on_y_part():
    loc = localized()
    zero = loc.mring.zero
    assert loc.endo_f(WreathElem(zero, (0, 0), (2, 0))).y == (0, 1)
    assert loc.endo_f(WreathElem(zero, (0, 0), (0, 1))).y == (1, 0)


# -- closed-form decomposition ---------------------------------------------------------

# localizing polynomials per p; x^2 + 3x + 2 = (x + 1)(x + 2) is reducible
LOCALIZERS = {2: (1, 1, 1), 3: (2, 1, 1), 5: (2, 3, 1)}
CLOSED_FORM_CASES = [(p, d, loc) for p in (2, 3, 5) for d in (1, 2, 3) for loc in (False, True)]


def make(p, d, loc):
    if loc:
        return WreathInstance(p, d, g=P(p, *LOCALIZERS[p]))
    return WreathInstance(p, d)


def samples(inst, rng, count):
    """Elements inside and outside H, with negative exponents and, in the
    localized family, denominators above 1 and g-powers in numerators."""
    out = []
    for _ in range(count):
        a, b, c = (inst.random_element(rng) for _ in range(3))
        abc = inst.multiply(inst.multiply(a, inst.invert(b)), c)
        out += [a, inst.random_h_element(rng), inst.multiply(abc, abc)]
    if inst.localized:
        # y_1^2 a y_1^-3 = (1/g(x_1)^2, 0, -e_1)
        y1 = inst.generators()["y1"]
        out.append(inst.multiply(inst.multiply(inst.elem_pow(y1, 2), inst.generators()["a"]), inst.elem_pow(y1, -3)))
    return out


def F(inst, r, slack=0):
    """The additive extension F of the a-part endomorphism."""
    return inst._F(*inst._cleared(r, slack=slack))


@pytest.mark.parametrize("p, d, loc", CLOSED_FORM_CASES)
def test_letters_closed_form_matches_generic_oracle(p, d, loc):
    rng = random.Random(100 * p + 10 * d + loc)
    inst = make(p, d, loc)
    elems = samples(inst, rng, min(12, max(2, 200 // inst.degree)))
    assert any(inst.h_member(g) for g in elems) and not all(inst.h_member(g) for g in elems)
    assert any(min(g.q) < 0 for g in elems)
    if loc:
        assert any(max(g.r.den) >= 2 for g in elems) and any(min(g.y) < 0 for g in elems)
    for g in elems:
        assert inst.letters(g) == Instance.letters(inst, g)


@pytest.mark.parametrize("p, d, loc", CLOSED_FORM_CASES)
def test_fused_multiply_and_invert_match_public_operations(p, d, loc):
    rng = random.Random(200 * p + 10 * d + loc)
    inst = make(p, d, loc)

    def shifted(r, q, y):
        # r * x^{-q} * g^{-y}, one public operation per factor
        out = r.mul_monomial(tuple(-e for e in q))
        for axis, k in enumerate(y):
            out = out.mul_g_power(axis, -k)
        return out

    elems = samples(inst, rng, 10)
    for a, b in zip(elems, reversed(elems)):
        ab = inst.multiply(a, b)
        assert ab.r == a.r + shifted(b.r, a.q, a.y)
        inv = inst.invert(a)
        assert inv.r == -shifted(a.r, inv.q, inv.y)
        for r in (ab.r, inv.r):
            c = canonicalize(inst.mring, r.num, r.den)
            assert (r.num, r.den) == (c.num, c.den)


@pytest.mark.parametrize("p, d, loc", CLOSED_FORM_CASES)
def test_F_is_additive_and_independent_of_the_clearing_power(p, d, loc):
    rng = random.Random(300 * p + 10 * d + loc)
    inst = make(p, d, loc)
    rs = [g.r for g in samples(inst, rng, 8)]
    for r1, r2 in zip(rs, reversed(rs)):
        assert F(inst, r1 + r2) == F(inst, r1) + F(inst, r2)
        if loc:
            assert F(inst, r1, slack=1) == F(inst, r1)


@pytest.mark.parametrize("p, d, loc", CLOSED_FORM_CASES)
def test_F_vanishes_on_numerators_in_x1_to_the_p(p, d, loc):
    rng = random.Random(400 * p + 10 * d + loc)
    inst = make(p, d, loc)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = (p * rng.randrange(-2, 3),) + tuple(rng.randrange(-2, 3) for _ in range(d - 1))
            terms[e] = rng.randrange(1, p)
        num = MultiLaurent(p, d, terms)
        if loc:
            # g(x_1)^p = g(x_1^p), and a denominator exponent of g(x_1) divisible by p
            num = num.mul_univariate(inst.mring.g_pow(p * rng.randrange(2)), 0)
            den = (p * rng.randrange(2),) + tuple(rng.randrange(3) for _ in range(d - 1))
            r = inst.mring.fraction(num, den)
        else:
            r = inst.mring.from_laurent(num)
        assert F(inst, r).is_zero
    # but not on 1 / g(x_1): the clearing power brings in other x_1-exponents
    if loc:
        assert not F(inst, inst.mring.fraction(MultiLaurent.one(p, d), (1,) + (0,) * (d - 1))).is_zero


@pytest.mark.parametrize("p, d, loc", [case for case in CLOSED_FORM_CASES if case[0] < 5])
def test_both_families_share_one_representation(p, d, loc):
    # the base family is the localized one with nothing inverted and no y:
    # every element has a fraction r, with len(y) == len(r.den) == mring.n
    inst = make(p, d, loc)
    n = d if loc else 0
    assert inst.mring.n == n
    rng = random.Random(500 * p + 10 * d + loc)
    hs = [inst.random_h_element(rng) for _ in range(4)]
    elems = list(inst.generators().values()) + [inst.random_element(rng) for _ in range(4)] + hs
    elems += [inst.multiply(a, b) for a, b in zip(elems, reversed(elems))]
    elems += [inst.invert(a) for a in elems]
    elems += [s for g in elems for s in inst.letters(g)[1]]
    elems += [inst.endo_f(h) for h in hs]
    for g in elems:
        assert isinstance(g.r, MultiSFraction) and g.r.ring is inst.mring
        assert len(g.y) == len(g.r.den) == n
        if not loc:
            assert g.y == () and g.r.den == ()


def test_letters_reports_a_wrong_coset_formula(monkeypatch):
    inst = localized()
    g = inst.generators()["a"]
    right = inst._index
    monkeypatch.setattr(inst, "_index", lambda *args: (right(*args) + inst.p * inst.p) % inst.degree)
    with pytest.raises(ContractViolation):
        inst.letters(g)
    with pytest.raises(ContractViolation):
        Instance.letters(inst, g)


@pytest.mark.parametrize("shift", ["J", "K"])
def test_letters_reports_a_wrong_letter_digit(monkeypatch, shift):
    # a coset formula off in the x_1- or y_1-digit of the letter
    inst = localized()
    p, nk = inst.p, inst.nk
    g = inst.generators()["a"]
    right = inst._index

    def wrong(*args):
        m = right(*args)
        i, j, k = m // (p * nk), m // nk % p, m % nk
        if shift == "J":
            j = (j + 1) % p
        else:
            k = (k + 1) % nk
        return (i * p + j) * nk + k

    monkeypatch.setattr(inst, "_index", wrong)
    with pytest.raises(ContractViolation):
        inst.letters(g)
    with pytest.raises(ContractViolation):
        Instance.letters(inst, g)


# -- values of F shared across states ---------------------------------------------------


@pytest.mark.parametrize("p, d, loc", [case for case in CLOSED_FORM_CASES if case[0] < 5])
def test_warm_memo_letters_match_generic_oracle_across_q_and_y(p, d, loc):
    # elements that share their a-part r hit the memo of its values of F,
    # whatever their q and y
    rng = random.Random(600 * p + 10 * d + loc)
    inst = make(p, d, loc)
    elems = samples(inst, rng, 2)
    for g in elems:
        inst.letters(g)
    warm = len(inst._f_values)
    for g in elems:
        for _ in range(2):
            h = inst.random_element(rng)
            shifted = WreathElem(g.r, h.q, h.y)
            assert inst.letters(shifted) == Instance.letters(inst, shifted)
    assert len(inst._f_values) == warm
    if loc:
        # a-parts with one numerator over different denominators are
        # different keys
        for g in elems:
            for den in ((0,) * d, (1,) + (0,) * (d - 1), (0,) * (d - 1) + (2,)):
                other = WreathElem(inst.mring.fraction(g.r.num, den), g.q, g.y)
                assert inst.letters(other) == Instance.letters(inst, other)


@pytest.mark.parametrize("p, d, loc", [case for case in CLOSED_FORM_CASES if case[0] < 5])
def test_letters_with_the_same_j_and_k_hold_one_state(p, d, loc):
    rng = random.Random(700 * p + 10 * d + loc)
    inst = make(p, d, loc)
    nk = inst.nk
    for g in samples(inst, rng, 3):
        states = inst.letters(g)[1]
        for i in range(p):
            for jk in range(p * nk):
                assert states[i * p * nk + jk] is states[jk]


@pytest.fixture(scope="module")
def core_run():
    inst = load_config(CONFIGS / "wreath_localized_p2_d2.json")
    results = run_suite("core", inst, seed=0)
    return inst, results


def test_core_suite_checks_the_same_work(core_run):
    # the memo sizes of the seed-0 core suite, pinned: sharing values of F
    # must not change what the suite decomposes, interns or verifies
    inst, results = core_run
    assert all(r.passed for r in results)
    sizes = (len(inst._decomp_cache), len(inst._intern_pool), len(inst._product_cache), len(inst._prule_cache))
    assert sizes == (9044, 14550, 17263, 6676)


def test_verified_pairs_reuse_the_product_map_keys(core_run):
    # a child pair is keyed in the verified-pair memo by the very tuple its
    # parent stored in the product map; only roots and pairs whose product
    # was already known bring a tuple of their own
    inst, _ = core_run
    product_keys = {id(key) for key in inst._product_cache}
    assert sum(id(pair) in product_keys for pair in inst._prule_cache) == 6270


def test_pooled_values_of_F_are_one_object_per_value(core_run):
    inst, _ = core_run
    values = [v for parts in inst._f_values.values() for v in parts]
    assert len({id(v) for v in values}) == len(set(values))
    assert all(inst._value_pool[v] is v for v in values)
    # the one pool holds the values of F, the a-parts of the stored
    # elements, which `share` draws from it, and their numerators, and
    # nothing else
    fractions = values + [e.r for e in inst._intern_pool]
    assert inst._value_pool.keys() == set(fractions) | {r.num for r in fractions}
    assert all(inst._value_pool[e.r] is e.r for e in inst._intern_pool)
    # each numerator is one object per value, the pooled one
    nums = [r.num for r in fractions]
    assert len({id(n) for n in nums}) == len(set(nums))
    assert all(inst._value_pool[n] is n for n in nums)
    # every state a decomposition produced holds a pooled value
    for dec in inst._decomp_cache.values():
        assert all(inst._value_pool.get(s.r) is s.r for s in dec.states)


def test_corrupted_f_fails_the_core_suite(monkeypatch):
    inst = load_config(CONFIGS / "wreath_localized_p2_d2.json")
    right = inst._f
    one = MultiLaurent.one(inst.p, inst.d)
    monkeypatch.setattr(inst, "_f", lambda num, j=0: right(num, j) + one)
    failed = {r.name for r in run_suite("core", inst, seed=0) if not r.passed}
    assert "product_rule" in failed


# -- engine interplay --------------------------------------------------------------------


def test_product_rule_wreath():
    rng = random.Random(17)
    for inst in (base(), localized()):
        for _ in range(10):
            g = inst.random_element(rng)
            h = inst.random_element(rng)
            assert product_rule_check(inst, g, h, 3)


def test_transitivity():
    for inst in (base(), localized()):
        gens = [g for name, g in inst.generators().items() if name != "e"]
        assert transitivity_check(inst, gens)


def test_faithfulness_probe_on_words():
    rng = random.Random(19)
    inst = localized()
    checked = 0
    for _ in range(40):
        g = inst.random_word(rng, rng.randrange(1, 7))
        if g == inst.identity():
            continue
        checked += 1
        assert faithfulness_probe(inst, g, 8) is not None
    assert checked >= 35


def test_cap_exceeded_allowed():
    from selfsim.engine import CapExceeded, states_bfs

    inst = base(2, 2)
    gens = inst.generators()
    g = inst.multiply(gens["a"], gens["x1"])
    res = states_bfs(inst, g, 4)
    assert isinstance(res, (CapExceeded, type(res)))
