"""The cases that the skipped trial divisions of the shared
localized-fraction core must not miss: one fixed case for each rule of
`_join` (equal exponents, raised from 0, and both in one shift-and-add)
and for products over a reducible localizer.

Both fraction types, over p in {2, 3, 5, 7}.  tests/test_ring_properties.py
checks the same rules on drawn fractions, over the rings defined here.
"""

import pytest

from selfsim.instances.wreath import validate_localizer
from selfsim.ring import (
    DensePoly,
    LocalizedRing,
    MultiLaurent,
    MultiLocalizedRing,
    canonicalize,
    validate_config,
)

PRIMES = (2, 3, 5, 7)
# a monic irreducible quadratic not vanishing at 1, for each p
QUADRATIC = {2: (1, 1, 1), 3: (2, 1, 1), 5: (1, 1, 1), 7: (3, 1, 1)}
# localizing polynomials; the ones for p = 5 and 7 are reducible, so a
# product of two canonical numerators can still be divisible by g(x_i)
LOCALIZER = {2: (1, 1, 1), 3: (1, 1), 5: (2, 3, 1), 7: (1, 2, 1)}
D = 2


def sring(p):
    polys = [DensePoly.x(p), DensePoly(p, QUADRATIC[p])]
    if p > 2:
        polys.append(DensePoly(p, (1, 1)))
    assert validate_config(p, polys).ok
    return LocalizedRing(p, polys)


def mring(p):
    g = DensePoly(p, LOCALIZER[p])
    assert validate_localizer(p, g) == []
    return MultiLocalizedRing(p, D, g)


RINGS = {("s", p): sring(p) for p in PRIMES} | {("m", p): mring(p) for p in PRIMES}


def canonical(r):
    """r is exactly what the validated entry makes of its num and den."""
    c = canonicalize(r.ring, r.num, r.den)
    return r.num == c.num and r.den == c.den and hash(r) == hash(c)


@pytest.mark.parametrize("p", PRIMES)
def test_add_mul_cancels_on_every_axis_rule(p):
    mr = RINGS["m", p]
    one = MultiLaurent.one(p, D)
    g0 = one.mul_univariate(mr.g, 0)
    # equal exponents: 1/g(x_1) + (g(x_1) - 1)/g(x_1) = 1
    r = mr.fraction(one, (1, 0)).add_mul(mr.fraction(g0 - one, (1, 0)), (0, 0), (0, 0))
    assert r == mr.one and canonical(r)
    # raised from 0 onto a divisible numerator: 1 + g(x_1) * g(x_1)^{-1} = 1 + 1,
    # and -1 + g(x_1)^2 * g(x_1)^{-3} = (1 - g(x_1))/g(x_1)
    r = mr.one.add_mul(mr.from_laurent(g0), (0, 0), (-1, 0))
    assert canonical(r) and r == mr.one + mr.one
    r = (-mr.one).add_mul(mr.from_laurent(g0.mul_univariate(mr.g, 0)), (0, 0), (-3, 0))
    assert canonical(r) and r.den == (1, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_sum_cancels_on_equal_exponent_axis(p):
    # 1/f_1 + (f_1 - 1)/f_1 = 1, on an axis where both exponents are 1
    ring = RINGS["s", p]
    f1 = ring.polys[1]
    one = DensePoly.one(p)
    s = ring.fraction(one, (0, 1) + (0,) * (ring.n - 2)) + ring.fraction(
        f1 - one, (0, 1) + (0,) * (ring.n - 2)
    )
    assert s.num == one and not any(s.den)
    # the same in the Laurent ring, on the second variable
    mr = RINGS["m", p]
    m1 = MultiLaurent.one(p, D)
    g2 = m1.mul_univariate(mr.g, 1)
    t = mr.fraction(m1, (0, 1)) + mr.fraction(g2 - m1, (0, 1))
    assert t == mr.one and t.den == (0, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_raised_exponent_cancels_into_divisible_numerator(p):
    # x(x^2+x+1) * x^{-1}: the unit raises the exponent of x from 0 onto a
    # numerator divisible by x
    ring = RINGS["s", p]
    a = ring.from_poly(DensePoly.x(p) * DensePoly(p, (1, 1, 1)))
    r = a.mul_unit(1, (-1,) + (0,) * (ring.n - 1))
    assert r.num == DensePoly(p, (1, 1, 1)) and not any(r.den)
    # g(x_1) * g(x_1)^{-2} = 1/g(x_1)
    mr = RINGS["m", p]
    g1 = mr.from_laurent(MultiLaurent.one(p, D).mul_univariate(mr.g, 0))
    q = g1.mul_g_power(0, -2)
    assert q.num == MultiLaurent.one(p, D) and q.den == (1, 0)


@pytest.mark.parametrize("p, factors", [(5, ((1, 1), (2, 1))), (7, ((1, 1), (1, 1)))])
def test_product_cancels_on_reducible_localizer(p, factors):
    # g = u * v: (u/g) * (v/g) = 1/g although neither numerator is divisible by g
    mr = RINGS["m", p]
    one = MultiLaurent.one(p, D)
    u, v = (one.mul_univariate(DensePoly(p, f), 0) for f in factors)
    r = mr.fraction(u, (1, 0)) * mr.fraction(v, (1, 0))
    assert r.num == one and r.den == (1, 0)


@pytest.mark.parametrize("key", sorted(RINGS))
def test_unit_multiple_never_scales_a_zero_numerator(key, monkeypatch):
    # a unit multiple is the shift-and-add onto zero: raising it to the
    # common denominator scales the right operand only, here on the axes
    # where w is positive; on axis 0 the zero left operand is not raised
    ring = RINGS[key]
    scaled = []
    right = ring._scale
    monkeypatch.setattr(ring, "_scale", lambda num, i, k: scaled.append(num) or right(num, i, k))
    n = ring.n
    x = ring.fraction(ring.one.num, (2,) + (0,) * (n - 1))
    w = (-1,) + (1,) * (n - 1)
    if key[0] == "s":
        results = [x.mul_unit(1, w), ring.zero._add_mul(x, x.num, w)]
    else:
        results = [x.mul_g_power(0, -1), ring.zero.add_mul(x, (0,) * n, w)]
    assert scaled and not any(num.is_zero for num in scaled)
    assert all(canonical(r) and not r.is_zero for r in results)
