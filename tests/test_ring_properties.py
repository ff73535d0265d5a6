"""Property tests for the shared localized-fraction core.

Both fraction types, over p in {2, 3, 5, 7}: the ring axioms, uniqueness of
the canonical form, and that every result of +, -, *, mul_unit,
mul_g_power and add_mul is already what the validated `canonicalize`
makes of it -- the oracle for the trial divisions the arithmetic skips.
The rings, and the fixed cases each skipped trial division must not miss,
are in tests/test_ring_cancel.py.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_ring_cancel import D, PRIMES, RINGS, canonical  # noqa: E402

from selfsim.ring import (  # noqa: E402
    DensePoly,
    LocalizedRing,
    MultiLaurent,
    MultiLocalizedRing,
    canonicalize,
    vec,
)


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


@settings(max_examples=600, deadline=None)
@given(ring_keys, st.data())
def test_add_mul_is_canonical_and_matches_sum_of_product(key, data):
    # the shared shift-and-add: MultiSFraction.add_mul with the unit x^exps,
    # and _add_mul in F_p[x] with a scalar unit (1 in the lamplighter product)
    ring = RINGS[key]
    a, b = data.draw(fractions(ring)), data.draw(fractions(ring))
    w = data.draw(st.tuples(*[st.integers(-4, 4)] * ring.n))
    if key[0] == "m":
        exps = data.draw(st.tuples(*[st.integers(-3, 3)] * D))
        unit = g_unit(ring, exps, w)

        def add_mul(x):
            return x.add_mul(b, exps, w)
    else:
        c = data.draw(st.integers(1, ring.p - 1))
        unit = unit_fraction(ring, c, w)

        def add_mul(x):
            return x._add_mul(b, b.num.mul_scalar(c), w)
    r = add_mul(a)
    assert canonical(r)
    assert r == a + b * unit
    u = add_mul(ring.zero)
    assert canonical(u) and u == b * unit


# -- DensePoly: trusted construction -------------------------------------------


def reduced_and_trimmed(r):
    if r.p == 2:
        # packed: any nonnegative int is a reduced, trimmed F_2[x] polynomial
        return type(r._bits) is int and r._bits >= 0
    c = r.coeffs
    return type(c) is tuple and all(0 <= x < r.p for x in c) and (not c or c[-1] != 0)


@given(st.sampled_from(PRIMES), st.lists(st.integers(-20, 20), max_size=6))
def test_lead_is_the_last_coefficient(p, coeffs):
    f = DensePoly(p, coeffs)
    assert f.lead == (f.to_json()[-1] if f.to_json() else 0)
    assert (f.lead == 0) == f.is_zero


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
        assert got == DensePoly(p, got.to_json())
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
        assert r.eval_at_one() == want.aug()
        assert r.render() == want.render()


@given(st.lists(st.integers(-3, 3), max_size=4))
def test_vec_returns_one_object_per_value(t):
    v = vec(tuple(t))
    assert v == tuple(t) and vec(tuple(list(t))) is v and vec(v) is v
