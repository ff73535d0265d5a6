"""The stored form of elements: `Instance.share` and the value pools.

`decompose` passes every element new to the intern pool through its
family's `share`, which rebuilds it from ring values pooled once per
instance (`_value_pool`).  A shared element must be the same group element
as its original (tests/test_sharing_properties.py draws them); after a
suite, the ring values that stored elements hold are one object per value,
and the intern pool keeps no unshared original as a key.  Sharing must not
blind the product rule, and it runs on intern misses only.
"""

import random
from pathlib import Path

import pytest

from selfsim.engine import decompose, product_rule_check
from selfsim.instances import load_config
from selfsim.ring import DensePoly, _LocalFraction
from selfsim.verify import run_suite

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# one config per family for the suite-level checks
PER_FAMILY = ["borel_m2_p3", "affine_n3_p2", "lamplighter_p3_n2", "wreath_localized_p2_d2"]


def _ring_values(inst, e) -> list:
    """The ring values of a stored element that its family pools: the
    exponent and its numerator (lamplighter), the a-part (wreath), the
    rows and entries of the matrix (Borel), and the vector entries, the
    matrix and its entries (affine)."""
    if inst.family == "lamplighter":
        return [e.r, e.r.num]
    if inst.family == "wreath":
        return [e.r]
    if inst.family == "borel":
        return [*e.rows, *(x for row in e.rows for x in row)]
    return [*e.v, e.b, *(x for row in e.b.rows for x in row)]


@pytest.fixture(scope="module", params=PER_FAMILY)
def core_run(request):
    inst = load_config(CONFIGS / f"{request.param}.json")
    assert all(r.passed for r in run_suite("core", inst, seed=0))
    return inst


def test_stored_ring_values_are_one_object_per_value(core_run):
    inst = core_run
    seen = {}
    for e in inst._intern_pool:
        for v in _ring_values(inst, e):
            assert seen.setdefault(v, v) is v
    assert seen and all(inst._value_pool[v] is v for v in seen)


def test_every_intern_pool_key_is_its_own_value(core_run):
    assert all(key is value for key, value in core_run._intern_pool.items())
    assert all(key is value for key, value in core_run._value_pool.items())


@pytest.mark.parametrize("config", PER_FAMILY)
def test_product_rule_fails_with_swapped_multiply_under_sharing(config):
    # warm the pools with correct checks, then swap the factors: every
    # pair that does not commute must fail
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(89)
    for _ in range(3):
        assert product_rule_check(inst, inst.random_element(rng), inst.random_element(rng), 3)
    assert inst._value_pool
    right = type(inst).multiply
    pairs = [(inst.random_element(rng), inst.random_element(rng)) for _ in range(6)]
    noncommuting = [(g, h) for g, h in pairs if right(inst, g, h) != right(inst, h, g)]
    assert noncommuting
    inst.multiply = lambda a, b: right(inst, b, a)
    assert not any(product_rule_check(inst, g, h, 3) for g, h in noncommuting)


@pytest.mark.parametrize("config", PER_FAMILY)
def test_share_runs_once_per_element_new_to_the_intern_pool(config):
    inst = load_config(CONFIGS / f"{config}.json")
    calls = []
    right = inst.share
    inst.share = lambda x: calls.append(x) or right(x)
    rng = random.Random(97)
    sample = [inst.random_element(rng) for _ in range(3)]
    k = inst.random_element(rng)
    # equal elements reached as other objects hit the pool
    copies = [inst.multiply(inst.multiply(g, k), inst.invert(k)) for g in sample]
    for g in sample + copies:
        before = len(calls), len(inst._intern_pool)
        decompose(inst, g)
        assert len(calls) - before[0] == len(inst._intern_pool) - before[1]
    for g, h in zip(sample, copies):
        assert product_rule_check(inst, g, h, 3)
    assert len(calls) == len(inst._intern_pool) == len(set(calls))


class _CountingWrites(dict):
    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("config", PER_FAMILY)
def test_product_map_is_written_once_per_operand_pair(config):
    # a product read back from the map is compared, not stored again
    inst = load_config(CONFIGS / f"{config}.json")
    products = inst.__dict__["_product_cache"] = _CountingWrites()
    rng = random.Random(101)
    for _ in range(4):
        assert product_rule_check(inst, inst.random_element(rng), inst.random_element(rng), 3)
    assert products.writes == len(products) > 0


@pytest.mark.parametrize("config", ["lamplighter_p2_n2", "lamplighter_p3_n2", "wreath_localized_p2_d2"])
def test_a_rebuilt_fraction_is_stored_with_its_hash(config, monkeypatch):
    # share rebuilds a fraction new to the pool around the pooled equal
    # numerator; the rebuilt fraction carries the hash that the pool lookup
    # computed for the fraction it replaces
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(3)
    g = inst.random_element(rng)
    while g.r.is_zero:
        g = inst.random_element(rng)
    num = g.r.num
    twin = (num + num) - num
    assert twin == num and twin is not num
    inst._value_pool[twin] = twin
    computed = []
    original = _LocalFraction.__hash__

    def counting(self):
        if self._hash is None:
            computed.append(self)
        return original(self)

    monkeypatch.setattr(_LocalFraction, "__hash__", counting)
    r = inst.share(g).r
    assert r == g.r and r is not g.r and r.num is twin
    assert inst._value_pool[r] is r and r._hash == hash(g.r)
    assert [id(f) for f in computed] == [id(g.r)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ring_constants_are_one_shared_value_per_p(p):
    assert DensePoly.zero(p) is DensePoly.zero(p) and DensePoly.one(p) is DensePoly.one(p)
    assert DensePoly.zero(p) == DensePoly(p, ()) and DensePoly.one(p) == DensePoly(p, (1,))
    assert DensePoly.zero(p).is_zero and DensePoly.one(p).degree == 0


def test_shared_constants_stay_packed_at_p2():
    # the tuple storage of `_raw` is the oracle and never equals a packed value
    assert DensePoly.zero(2)._bits == 0 and DensePoly.one(2)._bits == 1
    assert DensePoly._raw(2, ()) != DensePoly.zero(2) and DensePoly._raw(2, (1,)) != DensePoly.one(2)
