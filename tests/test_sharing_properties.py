"""`Instance.share` on drawn elements: a shared element must be the same
group element as its original.  The checks that draw nothing are in
tests/test_sharing.py."""

import functools
import random
from pathlib import Path

import pytest

from selfsim.instances import load_config

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# every family, at p = 2 (packed polynomials) and p = 3 where shipped
SHARED_CONFIGS = [
    "borel_m2_p2", "borel_m2_p3", "affine_n3_p2", "lamplighter_p2_n2",
    "lamplighter_p3_n2", "wreath_base_p2_d2", "wreath_localized_p2_d2",
]


@functools.lru_cache(maxsize=None)
def _instance(config):
    return load_config(CONFIGS / f"{config}.json")


@settings(max_examples=40, deadline=None)
@given(config=st.sampled_from(SHARED_CONFIGS), seed=st.integers(0, 2**32 - 1))
def test_a_shared_element_is_its_original(config, seed):
    # products, inverses and unstored states, shared into a pool that
    # earlier examples have warmed
    inst = _instance(config)
    rng = random.Random(seed)
    g, h = inst.random_element(rng), inst.random_element(rng)
    for x in (g, inst.multiply(g, h), inst.invert(h), *inst.letters(g)[1]):
        shared = inst.share(x)
        assert type(shared) is type(x)
        assert shared == x and x == shared and hash(shared) == hash(x)
        assert inst.render(shared) == inst.render(x)
