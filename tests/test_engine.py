"""Engine-level tests, driven mostly through the lamplighter family plus
deliberately broken test doubles for the negative controls."""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from selfsim.engine import (
    CapExceeded,
    ContractViolation,
    Instance,
    MealyAutomaton,
    NotInH,
    Perm,
    act_on_word,
    decompose,
    faithfulness_probe,
    portrait,
    product_rule_check,
    states_bfs,
    transitivity_check,
    transversal_validate,
)
from selfsim.instances import load_config
from selfsim.instances.borel import BorelInstance
from selfsim.instances.lamplighter import LampInstance
from selfsim.ring import DensePoly, vec


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def P(p, *coeffs):
    return DensePoly(p, coeffs)


def lamp(p=2, n=1):
    polys = [DensePoly.x(p)]
    if n >= 2:
        polys.append(P(2, 1, 1, 1) if p == 2 else P(3, 2, 1, 1))
    return LampInstance(p, polys)


# -- Perm ----------------------------------------------------------------------


def test_perm_validation_and_composition():
    with pytest.raises(ValueError):
        Perm((0, 0))
    a = Perm((1, 2, 0))
    b = Perm((0, 2, 1))
    assert a.inverse().images == (2, 0, 1) and b.inverse() == b
    assert Perm.identity(3).cycles() == "()"
    assert a.cycles() == "(0 1 2)"


# -- decompose -----------------------------------------------------------------


def test_decompose_identity_is_trivial():
    inst = lamp()
    dec = decompose(inst, inst.identity())
    assert dec.perm.is_identity
    assert all(s == inst.identity() for s in dec.states)


def test_decompose_u_is_cycle_with_trivial_states():
    for p in (2, 3, 5):
        inst = lamp(p)
        u = inst.generators()["u"]
        dec = decompose(inst, u)
        assert dec.perm.images == tuple((i + 1) % p for i in range(p))
        assert all(s == inst.identity() for s in dec.states)


def test_decompose_x0_inverse_matches_classical_pair():
    inst = lamp(2)
    gens = inst.generators()
    g = inst.invert(gens["x0"])
    dec = decompose(inst, g)
    assert dec.perm.is_identity
    u_inv = inst.invert(gens["u"])
    assert dec.states == (g, inst.multiply(u_inv, g))


def test_decompose_inverse_relation():
    rng = random.Random(3)
    inst = lamp(3, 2)
    for _ in range(30):
        g = inst.random_element(rng)
        dg = decompose(inst, g)
        dginv = decompose(inst, inst.invert(g))
        assert dginv.perm == dg.perm.inverse()
        for i in range(inst.degree):
            assert dginv.states[dg.perm(i)] == inst.invert(dg.states[i])


# -- act_on_word ---------------------------------------------------------------


def test_act_identity_fixes_words():
    inst = lamp(2)
    for word in itertools.product((0, 1), repeat=4):
        assert act_on_word(inst, inst.identity(), word) == word


def test_act_u_flips_first_letter():
    inst = lamp(2)
    u = inst.generators()["u"]
    assert act_on_word(inst, u, (0, 0, 0)) == (1, 0, 0)


def test_act_product_is_composition_and_inverse_acts_trivially():
    rng = random.Random(5)
    inst = lamp(2, 2)
    for _ in range(25):
        g = inst.random_element(rng)
        h = inst.random_element(rng)
        gh = inst.multiply(g, h)
        ginv = inst.invert(g)
        for _ in range(4):
            w = tuple(rng.randrange(2) for _ in range(6))
            assert act_on_word(inst, gh, w) == act_on_word(inst, h, act_on_word(inst, g, w))
            assert act_on_word(inst, ginv, act_on_word(inst, g, w)) == w


def test_act_is_prefix_compatible():
    rng = random.Random(4)
    inst = lamp(2, 2)
    for _ in range(20):
        g = inst.random_element(rng)
        w = tuple(rng.randrange(2) for _ in range(6))
        img = act_on_word(inst, g, w)
        for k in range(len(w)):
            assert img[:k] == act_on_word(inst, g, w[:k])


def test_act_is_bijection_per_level():
    inst = lamp(2, 1)
    g = inst.multiply(inst.generators()["u"], inst.invert(inst.generators()["x0"]))
    for L in range(1, 7):
        words = list(itertools.product(range(2), repeat=L))
        images = {act_on_word(inst, g, w) for w in words}
        assert len(images) == len(words)


# -- product rule ---------------------------------------------------------------


def test_product_rule_random_pairs():
    rng = random.Random(7)
    inst = lamp(2, 2)
    for _ in range(40):
        g = inst.random_element(rng)
        h = inst.random_element(rng)
        assert product_rule_check(inst, g, h, 4)


def test_product_rule_on_inverse_pair():
    rng = random.Random(9)
    inst = lamp(3)
    g = inst.random_element(rng)
    assert product_rule_check(inst, g, inst.invert(g), 3)


class _CorruptedEndo(LampInstance):
    """Test double whose endomorphism is off by an additive constant.

    An affine shift is never a homomorphism, so the product rule must
    notice (corruptions that are still homomorphisms would be consistent
    with the recursion and rightly pass).  The generic walk decomposes, so
    the corrupted `endo_f` is the one applied."""

    letters = Instance.letters

    def endo_f(self, g):
        from selfsim.instances.lamplighter import LampElem

        good = super().endo_f(g)
        return LampElem(good.r + self.ring.one, good.q)


def test_product_rule_detects_corrupted_endo():
    inst = _CorruptedEndo(2, [DensePoly.x(2)])
    u = inst.generators()["u"]
    x0inv = inst.invert(inst.generators()["x0"])
    assert not product_rule_check(inst, x0inv, u, 2)


class _CorruptedProduct(LampInstance):
    """Test double whose `multiply` of one chosen operand pair, `bad`, is
    off by a right factor `offset` (none until the test sets them)."""

    bad = None
    offset = None

    def multiply(self, a, b):
        out = super().multiply(a, b)
        if (a, b) == self.bad:
            out = super().multiply(out, self.offset)
        return out


def test_product_rule_detects_corrupted_multiply_after_warm_up():
    # a correct check of (g, h) puts the products of their states into the
    # product map; once g * h is corrupted, each state of the corrupted
    # product is still compared with the known product, which tells them
    # apart.  The offset fixes level one, so only the states differ
    inst = _CorruptedProduct(2, [DensePoly.x(2)])
    rng = random.Random(47)
    g, h = inst.random_element(rng), inst.random_element(rng)
    offset = next(
        x for x in (inst.random_h_element(rng) for _ in range(50))
        if x != inst.identity() and decompose(inst, x).perm.is_identity
    )
    assert product_rule_check(inst, g, h, 1)
    dg, dh = decompose(inst, g), decompose(inst, h)
    for i in range(inst.degree):
        assert (dg.states[i], dh.states[dg.perm(i)]) in inst._product_cache
    # forget the verified pair, which would otherwise be skipped outright;
    # the product map stays warm
    inst._prule_cache.clear()
    inst.bad, inst.offset = (g, h), offset
    assert not product_rule_check(inst, g, h, 1)


# -- states_bfs / automata -------------------------------------------------------


def test_states_bfs_identity_single_state():
    inst = lamp(2)
    res = states_bfs(inst, inst.identity(), 1)
    assert isinstance(res, MealyAutomaton)
    assert len(res) == 1
    assert res.transitions == ((0, 0),)
    assert res.outputs == ((0, 1),)


def test_states_bfs_lamplighter_machine():
    inst = lamp(2)
    g = inst.invert(inst.generators()["x0"])
    res = states_bfs(inst, g, 8)
    assert isinstance(res, MealyAutomaton)
    assert len(res) == 2
    assert g in res.elements
    u_inv = inst.invert(inst.generators()["u"])
    assert inst.multiply(u_inv, g) in res.elements


def test_states_bfs_cap_exceeded_is_value():
    inst = lamp(2, 2)
    x1 = inst.generators()["x1"]
    res = states_bfs(inst, x1, 1)
    assert isinstance(res, CapExceeded)
    assert res.visited == 1


def test_states_bfs_closure_property():
    inst = lamp(3)
    g = inst.invert(inst.generators()["x0"])
    res = states_bfs(inst, g, 27)
    assert isinstance(res, MealyAutomaton)
    for row in res.transitions:
        assert all(0 <= t < len(res) for t in row)


def test_automaton_simulation_matches_action():
    inst = lamp(2)
    g = inst.invert(inst.generators()["x0"])
    aut = states_bfs(inst, g, 8)
    for word in itertools.product(range(2), repeat=6):
        assert aut.simulate(word) == act_on_word(inst, g, word)


def test_export_dot_identity_self_loops():
    inst = lamp(2)
    aut = states_bfs(inst, inst.identity(), 1)
    dot = aut.to_dot_bytes().decode()
    assert dot.startswith("digraph")
    assert '0|0' in dot and '1|1' in dot


def test_export_json_round_trip_byte_identical():
    inst = lamp(2)
    aut = states_bfs(inst, inst.invert(inst.generators()["x0"]), 8)
    blob = aut.to_json_bytes()
    again = MealyAutomaton.from_json_bytes(blob).to_json_bytes()
    assert blob == again


def test_automaton_rejects_nonpermutation_outputs():
    with pytest.raises(ValueError):
        MealyAutomaton(2, 0, ("a",), ((0, 0),), ((0, 0),))


# -- portrait --------------------------------------------------------------------


def test_portrait_shape():
    inst = lamp(2)
    u = inst.generators()["u"]
    node = portrait(inst, u, 2)
    assert node[0] == [1, 0]
    assert len(node[1]) == 2
    assert node[1][0] == [[0, 1]]
    assert portrait(inst, inst.identity(), 3)[0] == [0, 1]


# -- transversal validation -------------------------------------------------------


def test_transversal_validate_ok_with_sample():
    rng = random.Random(11)
    inst = lamp(3, 2)
    sample = [inst.random_element(rng) for _ in range(20)]
    assert transversal_validate(inst, sample)


class _DuplicatedTransversal(LampInstance):
    @property
    def transversal(self):
        base = super().transversal
        return (base[0], base[0])


def test_transversal_validate_rejects_duplicates():
    inst = _DuplicatedTransversal(2, [DensePoly.x(2)])
    assert not transversal_validate(inst)


class _RotatedTransversal(LampInstance):
    """Transversal u, u^2, ..., u^{p-1}, e with a coset map to match, so
    that only t_0 = u lying outside H is wrong."""

    def _build_transversal(self):
        base = super()._build_transversal()
        return base[1:] + base[:1]

    def coset_index(self, g):
        return (super().coset_index(g) - 1) % self.p


def test_transversal_validate_rejects_t0_outside_h():
    inst = _RotatedTransversal(3, [DensePoly.x(3)])
    ts = inst.transversal
    assert [inst.coset_index(t) for t in ts] == [inst.coset_index_exhaustive(t) for t in ts] == [0, 1, 2]
    assert not inst.h_member(ts[0])
    assert not transversal_validate(inst)


class _ShiftedCosetIndex(LampInstance):
    def coset_index(self, g):
        return (super().coset_index(g) + 1) % self.p


def test_transversal_validate_rejects_wrong_index_on_transversal():
    inst = _ShiftedCosetIndex(3, [DensePoly.x(3)])
    assert inst.coset_index(inst.transversal[0]) == 1
    assert not transversal_validate(inst)


class _WrongOffTransversal(LampInstance):
    """Right on u^i, one coset off on every element with a Z^n part."""

    def coset_index(self, g):
        return (super().coset_index(g) + any(g.q)) % self.p


def test_transversal_validate_rejects_sample_disagreeing_with_search():
    inst = _WrongOffTransversal(3, [DensePoly.x(3)])
    x0 = inst.generators()["x0"]
    u = inst.generators()["u"]
    assert transversal_validate(inst)
    assert transversal_validate(inst, [u, inst.multiply(u, u)])
    assert inst.coset_index(x0) != inst.coset_index_exhaustive(x0)
    assert not transversal_validate(inst, [u, x0])


# -- transitivity ------------------------------------------------------------------


def test_transitivity_of_generators():
    inst = lamp(3, 2)
    gens = [g for name, g in inst.generators().items() if name != "e"]
    assert transitivity_check(inst, gens)


def test_transitivity_fails_for_identity_only():
    inst = lamp(3)
    assert not transitivity_check(inst, [inst.identity()])


# -- faithfulness probe -------------------------------------------------------------


def test_faithfulness_probe_u_moves_level_one():
    inst = lamp(2)
    assert faithfulness_probe(inst, inst.generators()["u"], 4) == 1


def test_faithfulness_probe_identity_rejected():
    inst = lamp(2)
    with pytest.raises(ValueError):
        faithfulness_probe(inst, inst.identity(), 4)


def test_faithfulness_probe_deeper_element():
    inst = lamp(2)
    # u^{(x-1)^2} fixes two levels, moves the third
    lam = P(2, 1, 0, 1)  # (x-1)^2 over F_2
    g = inst.u_power(lam)
    assert faithfulness_probe(inst, g, 8) == 3


def test_random_nontrivial_elements_act_nontrivially():
    rng = random.Random(13)
    inst = lamp(2, 2)
    count = 0
    for _ in range(60):
        g = inst.random_element(rng)
        if g == inst.identity():
            continue
        count += 1
        assert faithfulness_probe(inst, g, 10) is not None
    assert count > 50


# -- coset index and hashing, every family -----------------------------------------

FAMILY_CONFIGS = [
    "borel_m2_p2", "borel_m2_p3", "borel_m3_p2", "affine_n3_p2",
    "lamplighter_p3_n2", "wreath_base_p2_d2", "wreath_localized_p2_d2",
]


@pytest.mark.parametrize("config", FAMILY_CONFIGS)
def test_coset_index_matches_exhaustive_search(config):
    # the coset by searching the whole transversal; the sample includes the
    # t * g whose cosets a decomposition reads
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(23)
    sample = [inst.random_element(rng, 6) for _ in range(10)]
    sample += [inst.multiply(t, g) for t in inst.transversal[:4] for g in sample[:3]]
    for g in sample:
        assert inst.coset_index(g) == inst.coset_index_exhaustive(g)


@pytest.mark.parametrize("config", FAMILY_CONFIGS)
def test_equal_elements_have_equal_hashes(config):
    # hashes are computed on first use: equal values reached through
    # different products agree, whichever is hashed first
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(29)
    for _ in range(10):
        g, h = inst.random_element(rng, 5), inst.random_element(rng, 5)
        again = inst.multiply(inst.multiply(g, h), inst.invert(h))
        other = inst.multiply(inst.invert(h), inst.multiply(h, g))
        assert again == g == other
        assert hash(again) == hash(g) == hash(other)
        assert len({g, again, other}) == 1


def _endo_defined(inst, g) -> bool:
    try:
        inst.endo_f(g)
    except NotInH:
        return False
    return True


@pytest.mark.parametrize("config", FAMILY_CONFIGS)
def test_endo_f_raises_not_in_h_exactly_off_h(config):
    # f is the partial map on H: h_member(g) holds exactly when endo_f(g)
    # does not raise NotInH, on elements drawn inside and outside H
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(31)
    sample = [inst.random_h_element(rng) for _ in range(8)]
    sample += [inst.random_element(rng) for _ in range(8)]
    sample += [inst.multiply(t, g) for t in inst.transversal[1:4] for g in sample[:4]]
    members = [inst.h_member(g) for g in sample]
    assert True in members and False in members
    assert [_endo_defined(inst, g) for g in sample] == members


class _CountingBorel(BorelInstance):
    # the generic walk, whose H tests are counted
    letters = Instance.letters

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = Counter()

    def h_member(self, g):
        self.calls["h_member"] += 1
        return super().h_member(g)

    def endo_f(self, g):
        self.calls["endo_f"] += 1
        return super().endo_f(g)


def test_decompose_tests_h_once_per_letter_through_endo_f():
    inst = _CountingBorel(2, 3, [DensePoly.x(2), P(2, 1, 1, 1)])
    g = inst.random_element(random.Random(37), 6)
    assert inst.degree == 16
    decompose(inst, g)
    assert inst.calls == {"endo_f": 16}


def _counting_products(inst):
    """inst, re-classed so that it counts its `multiply` and `invert`
    calls."""
    base = type(inst)

    class Counting(base):
        products = 0
        inversions = 0

        def multiply(self, a, b):
            self.products += 1
            return base.multiply(self, a, b)

        def invert(self, a):
            self.inversions += 1
            return base.invert(self, a)

    inst.__class__ = Counting
    return inst


@pytest.mark.parametrize("config", FAMILY_CONFIGS)
def test_decompose_makes_no_products(config):
    # every family computes its letters in closed form; the generic walk
    # makes two products per letter.  No inversion either, on a fresh
    # instance: Borel reads the inverse letters off the identity's walk
    inst = _counting_products(load_config(CONFIGS / f"{config}.json"))
    rng = random.Random(43)
    sample = [inst.random_element(rng, 6) for _ in range(4)] + [inst.random_h_element(rng)]
    inst.products = inst.inversions = 0
    for g in sample:
        decompose(inst, g)
    assert len(inst._decomp_cache) == len(set(sample))
    assert inst.products == inst.inversions == 0


# -- the engine memo: intern pool and product map ---------------------------------


@pytest.mark.parametrize("config", FAMILY_CONFIGS)
def test_decompose_interns_equal_elements(config):
    # equal elements reached as different objects come out of the memo as
    # one object, states and memo keys alike, and the product map holds
    # interned states only
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(53)
    sample = [inst.random_element(rng, 4) for _ in range(4)]
    k = inst.random_element(rng, 3)
    copies = [inst.multiply(inst.multiply(g, k), inst.invert(k)) for g in sample]
    seen = {}
    for g in sample + copies:
        for s in decompose(inst, g).states:
            assert seen.setdefault(s, s) is s
    for g, again in zip(sample, copies):
        assert again is not g and decompose(inst, again) is decompose(inst, g)
    pool = inst._intern_pool
    assert all(pool[key] is key for key in inst._decomp_cache)
    assert product_rule_check(inst, sample[0], sample[1], 2)
    for (a, b), ab in inst._product_cache.items():
        assert pool[a] is a and pool[b] is b and pool[ab] is ab
        assert ab == inst.multiply(a, b)


@pytest.mark.parametrize("config", FAMILY_CONFIGS)
def test_decompositions_with_equal_images_share_one_perm(config):
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(71)
    for _ in range(2):
        assert product_rule_check(inst, inst.random_element(rng), inst.random_element(rng), 2)
    perms = {}
    for dec in inst._decomp_cache.values():
        assert perms.setdefault(dec.perm.images, dec.perm) is dec.perm
    assert perms == inst._perm_pool and len(perms) < len(inst._decomp_cache)
    assert all(inst._perm_pool[images] is perm for images, perm in perms.items())


def _pooled_vectors(elem) -> list:
    """The exponent vectors an element stores through `ring.vec`: q and y,
    and the denominator vector of a fraction r.  A Borel element has none
    (its states reuse the exps of the element they come from)."""
    r = getattr(elem, "r", None)
    out = [getattr(elem, "q", None), getattr(elem, "y", None), getattr(r, "den", None)]
    return [v for v in out if v is not None]


@pytest.mark.parametrize(
    "config", ["wreath_base_p2_d2", "wreath_localized_p2_d2", "lamplighter_p3_n2", "borel_m2_p3"]
)
def test_memoized_elements_share_their_exponent_vectors(config):
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(73)
    for _ in range(3):
        assert product_rule_check(inst, inst.random_element(rng), inst.random_element(rng), 3)
    vectors = {}
    for e in inst._intern_pool:
        for v in _pooled_vectors(e):
            assert vectors.setdefault(v, v) is v and vec(v) is v
    assert bool(vectors) == (inst.family != "borel")
    if inst.family == "wreath":
        # F's term keys come from the pooled sigma
        assert any(vec(k) is k for e in inst._intern_pool for k in e.r.num.terms)


class _FoldingLetters(LampInstance):
    """Test double whose `letters` sends every letter to 0 (not a
    bijection) for one chosen element, `bad`."""

    bad = None

    def letters(self, g):
        images, states = super().letters(g)
        return ([0] * len(images) if g == self.bad else images), states


def test_non_bijective_letters_raise_on_every_call():
    inst = _FoldingLetters(3, [DensePoly.x(3)])
    inst.bad = inst.generators()["u"]
    decompose(inst, inst.identity())
    pooled = dict(inst._perm_pool)
    for _ in range(2):
        with pytest.raises(ContractViolation, match="not a bijection"):
            decompose(inst, inst.bad)
    assert inst._perm_pool == pooled and inst.bad not in inst._decomp_cache


class _CountingEq:
    """A field value that counts the calls of its `__eq__`."""

    calls = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        _CountingEq.calls += 1
        return isinstance(other, _CountingEq) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


def _twins_with_a_counting_field():
    """(element, equal element as another object) for each element class,
    the field compared first wrapped in `_CountingEq`."""
    from selfsim.instances.affine import AffineElem
    from selfsim.instances.borel import BorelElem
    from selfsim.instances.lamplighter import LampElem
    from selfsim.instances.wreath import WreathElem
    from selfsim.ring import MultiSFraction, SFraction

    def w(x):
        return _CountingEq(x)

    lamp_inst = lamp(3)
    wreath = load_config(CONFIGS / "wreath_localized_p2_d2.json")
    borel = load_config(CONFIGS / "borel_m2_p2.json")
    affine = load_config(CONFIGS / "affine_n3_p2.json")
    g = wreath.generators()["a"]
    u = lamp_inst.generators()["u"]
    b = borel.generators()["x1_1"]
    v = affine.random_element(random.Random(3))
    one, mone = lamp_inst.ring.one, wreath.mring.one
    return {
        "WreathElem": [WreathElem(w(g.r), g.q, g.y) for _ in range(2)],
        "LampElem": [LampElem(w(u.r), u.q) for _ in range(2)],
        "AffineElem": [AffineElem(v.v, w(v.b)) for _ in range(2)],
        "BorelElem": [BorelElem(w(b.mat), b.exps) for _ in range(2)],
        "SFraction": [SFraction(one.ring, w(one.num), one.den, _canonical=True) for _ in range(2)],
        "MultiSFraction": [
            MultiSFraction(mone.ring, w(mone.num), mone.den, _canonical=True) for _ in range(2)
        ],
    }


@pytest.mark.parametrize("cls", sorted(_twins_with_a_counting_field()))
def test_element_equal_to_itself_compares_no_field(cls):
    x, twin = _twins_with_a_counting_field()[cls]
    _CountingEq.calls = 0
    assert x == x and not x != x
    assert _CountingEq.calls == 0
    # the wrapper does count: an equal element that is another object
    # compares its fields
    assert x == twin and x is not twin
    assert _CountingEq.calls == 1


@pytest.mark.parametrize("config", FAMILY_CONFIGS)
def test_warm_memo_agrees_with_a_fresh_instance(config):
    # after other checks have filled the memos, decompositions and check
    # results equal those of an instance that starts empty
    warm = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(59)
    for _ in range(3):
        assert product_rule_check(warm, warm.random_element(rng), warm.random_element(rng), 2)
    fresh = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(61)
    pairs = [(warm.random_element(rng), warm.random_element(rng)) for _ in range(3)]
    for g, h in pairs:
        for x in (g, h, warm.multiply(g, h)):
            assert decompose(warm, x) == decompose(fresh, x)
    assert [product_rule_check(warm, g, h, 2) for g, h in pairs] == [
        product_rule_check(fresh, g, h, 2) for g, h in pairs
    ]


def test_warm_memo_agrees_with_a_fresh_instance_on_failures():
    # the same with the corrupted endomorphism, whose checks fail
    warm = _CorruptedEndo(2, [DensePoly.x(2)])
    rng = random.Random(67)
    for _ in range(5):
        product_rule_check(warm, warm.random_element(rng), warm.random_element(rng), 3)
    fresh = _CorruptedEndo(2, [DensePoly.x(2)])
    pairs = [(warm.random_element(rng), warm.random_element(rng)) for _ in range(8)]
    results = [product_rule_check(warm, g, h, 3) for g, h in pairs]
    assert False in results
    assert results == [product_rule_check(fresh, g, h, 3) for g, h in pairs]


def test_elem_pow_makes_one_product_per_bit():
    # one squaring per bit after the top one, one product per further set bit
    inst = _counting_products(load_config(CONFIGS / "borel_m3_p2.json"))
    g = inst.generators()["x1_1"]

    def products(k):
        inst.products = 0
        inst.elem_pow(g, k)
        return inst.products

    assert products(256) == 8
    for k in (1, 2, 3, 255, -255):
        assert products(k) == abs(k).bit_length() - 1 + bin(k).count("1") - 1, k
    assert products(0) == 0


@pytest.mark.parametrize(
    "config", ["borel_m2_p2", "affine_n3_p2", "lamplighter_p3_n2", "wreath_localized_p2_d2"]
)
def test_elem_pow_matches_repeated_products(config):
    inst = load_config(CONFIGS / f"{config}.json")
    g = inst.random_element(random.Random(41))
    assert g != inst.identity()
    for base in (g, inst.invert(g)):
        acc = inst.identity()
        for k in range(21):
            assert inst.elem_pow(g, k if base is g else -k) == acc
            acc = inst.multiply(acc, base)


# -- random sampling -------------------------------------------------------------

# (render of the sampled element, the next rng.randrange(10**6)) per config and
# seed.  The benchmark's recorded outputs depend on these streams, so a
# reordered, missing or extra draw must fail here first.
SAMPLER_STREAMS = {
    ("borel_m3_p2", 0): ("[[1,(x^2+x+1)/(x),0],[0,(x^2+x+1)/(x),0],[0,0,1/(x)*(x^2+x+1)]]", 529202),
    ("borel_m3_p2", 1): ("[[1,0,0],[0,1/(x^2+x+1),0],[0,0,1/(x)*(x^2+x+1)^3]]", 511554),
    ("borel_m3_p2", 2): ("[[1,x^2+1,x],[0,x^2,x],[0,0,x]]", 451589),
    ("affine_n3_p2", 0): ("v=[1,0,0];b=[[1,0,0],[x^2+1,x,x^2+1],[x,1,x]]", 611720),
    ("affine_n3_p2", 1): ("v=[0,0,1];b=[[1,x+1,x+1],[0,1,0],[0,0,1]]", 511554),
    ("affine_n3_p2", 2): ("v=[0,1,1];b=[[1,0,x+1],[0,1,0],[0,0,1]]", 451589),
    ("wreath_localized_p2_d2", 0): ("x2^-1 y1^-1", 611720),
    ("wreath_localized_p2_d2", 1): ("x2 y2", 519501),
    ("wreath_localized_p2_d2", 2): ("a", 378596),
}


@pytest.mark.parametrize("config, seed", sorted(SAMPLER_STREAMS))
def test_sampler_streams_are_pinned(config, seed):
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(seed)
    if inst.family == "wreath":
        g = inst.random_word(rng, rng.randrange(1, 7))
    else:
        g = inst.random_element(rng)
    assert (inst.render(g), rng.randrange(10**6)) == SAMPLER_STREAMS[config, seed]
