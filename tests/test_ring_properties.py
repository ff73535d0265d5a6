"""Property tests for the shared localized-fraction core.

Both fraction types, over p in {2, 3, 5, 7}: the ring axioms, uniqueness of
the canonical form, and that every result of +, -, *, mul_unit,
mul_g_power and add_mul is already what the validated `canonicalize`
makes of it -- the oracle for the trial divisions the arithmetic skips.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from selfsim.instances.wreath import validate_localizer  # noqa: E402
from selfsim.ring import (  # noqa: E402
    DensePoly,
    LocalizedRing,
    MultiLaurent,
    MultiLocalizedRing,
    canonicalize,
    validate_config,
    vec,
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


def basis_power(ring, num, i, k):
    """num * b_i^k through the public polynomial operations."""
    if isinstance(ring, LocalizedRing):
        return num * ring.polys[i] ** k
    return num.mul_univariate(ring.g ** k, i)


@st.composite
def numerators(draw, ring):
    p = ring.p
    if isinstance(ring, LocalizedRing):
        return DensePoly(p, draw(st.lists(st.integers(0, p - 1), max_size=4)))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(-2, 2)] * D), st.integers(1, p - 1), max_size=3
        )
    )
    return MultiLaurent(p, D, terms)


@st.composite
def fractions(draw, ring):
    """canonicalize(num * prod b_i^{k_i}, den): basis factors that may cancel."""
    num = draw(numerators(ring))
    den = []
    for i in range(ring.n):
        k = draw(st.integers(0, 2))
        num = basis_power(ring, num, i, k)
        den.append(draw(st.integers(0, 3)))
    return canonicalize(ring, num, den)


def canonical(r):
    """r is exactly what the validated entry makes of its num and den."""
    c = canonicalize(r.ring, r.num, r.den)
    return r.num == c.num and r.den == c.den and hash(r) == hash(c)


ring_keys = st.sampled_from(sorted(RINGS))


def with_elements(count):
    @st.composite
    def draw_all(draw):
        ring = RINGS[draw(ring_keys)]
        return ring, [draw(fractions(ring)) for _ in range(count)]

    return draw_all()


@settings(max_examples=150, deadline=None)
@given(with_elements(3))
def test_ring_axioms(case):
    ring, (a, b, c) = case
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero == a and a * ring.one == a
    assert (a - a).is_zero and a + (-a) == ring.zero
    assert a - b == a + (-b)


@settings(max_examples=150, deadline=None)
@given(with_elements(2), st.data())
def test_canonical_form_is_unique(case, data):
    ring, (a, b) = case
    # a second representation of the value of a, with basis factors to cancel
    i = data.draw(st.integers(0, ring.n - 1))
    k = data.draw(st.integers(1, 3))
    den = list(a.den)
    den[i] += k
    again = canonicalize(ring, basis_power(ring, a.num, i, k), den)
    assert again.num == a.num and again.den == a.den and hash(again) == hash(a)
    assert (a == b) == (a - b).is_zero
    if a == b:
        assert a.num == b.num and a.den == b.den and hash(a) == hash(b)


@settings(max_examples=200, deadline=None)
@given(with_elements(2))
def test_arithmetic_results_are_canonical(case):
    _, (a, b) = case
    for r in (a + b, a - b, b - a, a * b, -a):
        assert canonical(r)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_mul_unit_is_canonical_and_matches_product(p, data):
    ring = RINGS["s", p]
    a = data.draw(fractions(ring))
    c = data.draw(st.integers(1, p - 1))
    w = tuple(data.draw(st.integers(-3, 3)) for _ in range(ring.n))
    r = a.mul_unit(c, w)
    assert canonical(r)
    assert r == a * unit_fraction(ring, c, w)


def unit_fraction(ring, c, w):
    """c * prod f_i^{w_i} through the validated `canonicalize`."""
    num = DensePoly.constant(ring.p, c)
    for f, e in zip(ring.polys, w):
        if e > 0:
            num = num * f**e
    return canonicalize(ring, num, [max(-e, 0) for e in w])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_mul_g_power_is_canonical_and_matches_product(p, data):
    ring = RINGS["m", p]
    a = data.draw(fractions(ring))
    axis = data.draw(st.integers(0, D - 1))
    k = data.draw(st.integers(-3, 3))
    r = a.mul_g_power(axis, k)
    assert canonical(r)
    one = MultiLaurent.one(p, D)
    if k >= 0:
        factor = ring.from_laurent(one.mul_univariate(ring.g_pow(k), axis))
    else:
        factor = ring.fraction(one, [-k if i == axis else 0 for i in range(D)])
    assert r == a * factor


def g_unit(ring, exps, gexps):
    """x^exps * prod g(x_i)^{gexps_i} through the public operations."""
    out = ring.from_laurent(MultiLaurent.monomial(ring.p, D, exps))
    for axis, k in enumerate(gexps):
        out = out.mul_g_power(axis, k)
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_add_mul_is_canonical_and_matches_sum_of_product(p, data):
    ring = RINGS["m", p]
    a, b = data.draw(fractions(ring)), data.draw(fractions(ring))
    exps = data.draw(st.tuples(*[st.integers(-3, 3)] * D))
    gexps = data.draw(st.tuples(*[st.integers(-4, 4)] * D))
    unit = g_unit(ring, exps, gexps)
    r = a.add_mul(b, exps, gexps)
    assert canonical(r)
    assert r == a + b * unit
    u = ring.zero.add_mul(b, exps, gexps)
    assert canonical(u) and u == b * unit


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


# -- DensePoly: trusted construction -------------------------------------------


def reduced_and_trimmed(r):
    c = r.coeffs
    return type(c) is tuple and all(0 <= x < r.p for x in c) and (not c or c[-1] != 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_dense_poly_results_are_reduced_and_trimmed(p, data):
    # results built without the public constructor's reduction equal what
    # the public constructor makes of the naive integer coefficients
    ints = st.lists(st.integers(-3 * p, 3 * p), max_size=6)
    ca, cb = data.draw(ints), data.draw(ints)
    # top coefficients that cancel, so results need trimming
    if data.draw(st.booleans()):
        cb = ca[:-1] + [x + p for x in ca[-1:]]
    a, b = DensePoly(p, ca), DensePoly(p, cb)
    c = data.draw(st.integers(-2 * p, 2 * p))
    n = max(len(ca), len(cb))
    pa, pb = ca + [0] * (n - len(ca)), cb + [0] * (n - len(cb))
    conv = [0] * (len(ca) + len(cb))
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            conv[i + j] += x * y
    pairs = [
        (a + b, [x + y for x, y in zip(pa, pb)]),
        (a - b, [x - y for x, y in zip(pa, pb)]),
        (-a, [-x for x in ca]),
        (a * b, conv),
        (a.mul_scalar(c), [x * c for x in ca]),
    ]
    for got, naive in pairs:
        want = DensePoly(p, naive)
        assert reduced_and_trimmed(got)
        assert got == want and hash(got) == hash(want)
        assert got == DensePoly(p, got.coeffs)
    if not b.is_zero:
        q, r = divmod(a, b)
        assert reduced_and_trimmed(q) and reduced_and_trimmed(r)
        assert q * b + r == a and r.degree < b.degree


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_den_inverse_matches_invmod(p, data):
    ring = RINGS["s", p]
    k = data.draw(st.integers(1, 4))
    modulus = ring.pivot_pow(k)
    a = data.draw(fractions(ring))
    den = DensePoly.one(p)
    for f, e in zip(ring.polys, a.den):
        den = den * f ** e
    want = den.invmod(modulus)
    assert ring._den_inverse(a.den, k) == want
    assert ring._den_inverse(a.den, k) == want  # from the memo
    # the residue the Borel reduction uses: r * den = num mod pivot^k
    r = a.reduce_mod_pivot_pow(k)
    assert r.degree < k and (r * den - a.num) % modulus == DensePoly.zero(p)


# -- the cases the skipped trial divisions must not miss ---------------------


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


laurent_terms = st.dictionaries(
    st.tuples(*[st.integers(-2, 2)] * D), st.integers(1, 6), max_size=5
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), laurent_terms, laurent_terms, st.randoms(use_true_random=False))
def test_equal_laurent_values_hash_alike_in_any_term_order(p, terms, extra, rnd):
    a = MultiLaurent(p, D, terms)
    items = list(terms.items())
    rnd.shuffle(items)
    shuffled = MultiLaurent(p, D, dict(items))
    # extra terms added first and cancelled again: another insertion order
    e = MultiLaurent(p, D, extra)
    cancelled = (e + shuffled) - e
    for b in (shuffled, cancelled):
        assert a == b and hash(a) == hash(b) and a.render() == b.render()
    # render lists the terms in sorted exponent order
    want = [MultiLaurent.monomial(p, D, x, c).render() for x, c in sorted(a.terms.items())]
    assert a.render() == ("+".join(want) if want else "0")
    assert a.key == tuple(sorted(a.terms.items()))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 3), st.data())
def test_nothing_inverted_ring_is_laurent_arithmetic(p, d, data):
    # the base wreath family's ring: g = None, no denominator axes
    ring = MultiLocalizedRing(p, d, None)
    assert ring.n == 0 and ring.g_at_one == 1
    terms = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * d), st.integers(1, p - 1), max_size=4)
    a, b = (MultiLaurent(p, d, data.draw(terms)) for _ in range(2))
    fa, fb = ring.from_laurent(a), ring.from_laurent(b)
    exps = data.draw(st.tuples(*[st.integers(-3, 3)] * d))
    pairs = [
        (fa, a),
        (fa + fb, a + b),
        (fa * fb, a * b),
        (fa.add_mul(fb, exps, ()), a + b.mul_monomial(exps)),
        (ring.zero.add_mul(fb, exps, ()), b.mul_monomial(exps)),
    ]
    for r, want in pairs:
        assert r.num == want and r.den == ()
        assert canonical(r)
        assert r.eval_at_ones() == want.aug()
        assert r.render() == want.render()


@given(st.lists(st.integers(-3, 3), max_size=4))
def test_vec_returns_one_object_per_value(t):
    v = vec(tuple(t))
    assert v == tuple(t) and vec(tuple(list(t))) is v and vec(v) is v
