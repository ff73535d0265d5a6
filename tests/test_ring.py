"""Tests for the exact ring layer: canonical fractions, exact division,
evaluation homomorphisms, configuration validation, and ring laws on
random samples."""

import itertools
import random

import pytest

from selfsim.ring import (
    NEG_INF,
    DensePoly,
    DenominatorVanishes,
    LocalizedRing,
    MultiLaurent,
    MultiLocalizedRing,
    NotDivisible,
    NotInvertible,
    canonicalize,
    divide_exact,
    is_prime,
    validate_config,
)


def P(p, *coeffs):
    return DensePoly(p, coeffs)


def ring_f2():
    # A = F_2[1/x, 1/(x^2+x+1)]
    return LocalizedRing(2, [DensePoly.x(2), P(2, 1, 1, 1)])


def ring_f3():
    return LocalizedRing(3, [DensePoly.x(3), P(3, 2, 1, 1)])


def random_poly(rng, p, max_deg):
    return DensePoly(p, [rng.randrange(p) for _ in range(rng.randrange(max_deg + 2))])


def random_fraction(rng, ring, max_deg=4, max_exp=2):
    num = random_poly(rng, ring.p, max_deg)
    den = [rng.randrange(max_exp + 1) for _ in ring.polys]
    return ring.fraction(num, den)


# -- primality ---------------------------------------------------------------


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


# -- polynomial division -----------------------------------------------------


def test_poly_divrem_square_over_f2():
    # (x+1)^2 = x^2+1 over F_2
    q, r = divmod(P(2, 1, 0, 1), P(2, 1, 1))
    assert q == P(2, 1, 1)
    assert r.is_zero


def test_poly_divrem_by_x_minus_one_leaves_value_at_one():
    rng = random.Random(7)
    for p in (2, 3, 5):
        pivot = DensePoly(p, (-1, 1))
        for _ in range(50):
            lam = random_poly(rng, p, 5)
            q, r = divmod(lam, pivot)
            assert lam == q * pivot + r
            assert r.degree < pivot.degree or r.is_zero
            # remainder is the evaluation at 1
            assert r.eval(0) == lam.eval(1)


def test_poly_divrem_zero_dividend():
    q, r = divmod(DensePoly.zero(5), P(5, 1, 2))
    assert q.is_zero and r.is_zero


def test_poly_divrem_zero_divisor_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(P(2, 1), DensePoly.zero(2))


def test_degree_sentinel():
    assert DensePoly.zero(3).degree is NEG_INF
    assert P(3, 2).degree == 0
    assert max(DensePoly.zero(3).degree, P(3, 0, 1).degree) == 1


def test_ext_gcd_and_invmod():
    p = 3
    a = P(p, 1, 1)  # x+1
    m = P(p, 1, 1, 1)
    inv = a.invmod(m)
    assert (a * inv) % m == DensePoly.one(p)
    with pytest.raises(NotInvertible):
        # x is not invertible modulo x^2
        DensePoly.x(p).invmod(P(p, 0, 0, 1))


def test_poly_pow_with_modulus_matches_plain_pow():
    rng = random.Random(7)
    for _ in range(200):
        a = random_poly(rng, 5, 4)
        m = random_poly(rng, 5, 3)
        if m.is_zero:
            continue
        k = rng.randrange(13)
        assert pow(a, k, m) == a ** k % m


# -- divide_exact ------------------------------------------------------------


def test_divide_exact_factor():
    ring = ring_f2()
    a = ring.from_poly(P(2, 1, 1) * P(2, 1, 1, 1))  # (x-1)(x^2+x+1) over F_2
    assert divide_exact(a, 1) == ring.from_poly(P(2, 1, 1, 1))


def test_divide_exact_not_divisible():
    ring = ring_f2()
    with pytest.raises(NotDivisible):
        divide_exact(ring.from_poly(DensePoly.x(2)), 1)


def test_divide_exact_with_denominator_round_trip():
    ring = ring_f2()
    pivot = ring.pivot
    a = ring.fraction(pivot * pivot, (1, 0))  # (x-1)^2 / x
    res = divide_exact(a, 2)
    assert res == ring.fraction(DensePoly.one(2), (1, 0))
    # multiply back and compare
    back = res * ring.from_poly(pivot) * ring.from_poly(pivot)
    assert back == a


def test_divide_exact_round_trip_random():
    rng = random.Random(11)
    ring = ring_f3()
    piv = ring.from_poly(ring.pivot)
    for _ in range(100):
        a = random_fraction(rng, ring)
        k = rng.randrange(3)
        b = a
        for _ in range(k):
            b = b * piv
        assert divide_exact(b, k) == a or a.is_zero


# -- eval_at_one -------------------------------------------------------------


def test_eval_at_one_examples():
    ring = ring_f2()
    assert ring.from_poly(ring.pivot).eval_at_one() == 0
    # x / f_1 with f_1(1) = 1
    assert ring.fraction(DensePoly.x(2), (0, 1)).eval_at_one() == 1
    # (x^2+x+1)/x over F_2 -> 1/1 = 1
    assert ring.fraction(P(2, 1, 1, 1), (1, 0)).eval_at_one() == 1


def test_eval_at_one_denominator_vanishing():
    # deliberately invalid basis: f_1 = x-1 itself (never produced by the
    # validated constructors); eval must refuse
    ring = LocalizedRing(2, [DensePoly.x(2), P(2, 1, 1)])
    a = ring.fraction(DensePoly.one(2), (0, 1))
    with pytest.raises(DenominatorVanishes):
        a.eval_at_one()
    # a vanishing basis value is harmless while its exponent is zero
    assert ring.fraction(DensePoly.one(2), (1, 0)).eval_at_one() == 1
    # the same for g(x_i) = x_i + 1 over F_2 in the Laurent ring
    mring = MultiLocalizedRing(2, 2, P(2, 1, 1))
    with pytest.raises(DenominatorVanishes):
        mring.fraction(MultiLaurent.one(2, 2), (0, 1)).eval_at_one()
    assert mring.fraction(MultiLaurent.monomial(2, 2, (1, -1)), (0, 0)).eval_at_one() == 1


def test_eval_at_one_is_ring_homomorphism():
    rng = random.Random(13)

    def laurent_fraction(r, mring):
        den = [r.randrange(3) for _ in range(mring.n)]
        return mring.fraction(random_laurent(r, mring.p, mring.d), den)

    # the Laurent ring with g given (reducible over F_5), and with g = None
    cases = [(ring, random_fraction) for ring in (ring_f2(), ring_f3())] + [
        (mring, laurent_fraction)
        for mring in (MultiLocalizedRing(5, 2, P(5, 2, 3, 1)), MultiLocalizedRing(3, 2, None))
    ]
    for ring, sample in cases:
        for _ in range(200):
            a, b = sample(rng, ring), sample(rng, ring)
            assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one() % ring.p
            assert (a + b).eval_at_one() == (a.eval_at_one() + b.eval_at_one()) % ring.p
        assert ring.one.eval_at_one() == 1


# -- canonicalize ------------------------------------------------------------


def test_canonicalize_cancels_x():
    ring = ring_f2()
    num = DensePoly.x(2) * ring.pivot
    a = canonicalize(ring, num, (1, 0))
    assert a.num == ring.pivot and a.den == (0, 0)


def test_canonicalize_cancels_f1():
    ring = ring_f2()
    f1 = ring.polys[1]
    a = canonicalize(ring, f1 * P(2, 1, 1), (0, 1))
    assert a.num == P(2, 1, 1) and a.den == (0, 0)


def test_canonicalize_leaves_canonical_input():
    ring = ring_f2()
    a = canonicalize(ring, ring.pivot, (0, 0))
    assert a.num == ring.pivot and a.den == (0, 0)


def test_canonicalize_idempotent_and_equality_compatible():
    rng = random.Random(17)
    ring = ring_f3()
    for _ in range(200):
        a = random_fraction(rng, ring)
        again = canonicalize(ring, a.num, a.den)
        assert again == a
        # cross-multiplication equality test against a scaled variant
        k = rng.randrange(3)
        scaled_num = a.num
        den = list(a.den)
        for _ in range(k):
            scaled_num = scaled_num * ring.polys[0]
            den[0] += 1
        b = canonicalize(ring, scaled_num, den)
        assert b == a
        # a - b == 0 iff equal canonical forms
        assert (a - b).is_zero


def test_zero_has_trivial_denominator():
    ring = ring_f2()
    z = ring.fraction(DensePoly.zero(2), (2, 1))
    assert z.is_zero and z.den == (0, 0)


def test_canonical_equality_matches_value_equality():
    # canonical(a) == canonical(b) exactly when a - b == 0
    rng = random.Random(19)
    ring = ring_f2()
    for _ in range(300):
        a = random_fraction(rng, ring, max_deg=3, max_exp=1)
        b = random_fraction(rng, ring, max_deg=3, max_exp=1)
        assert (a == b) == (a - b).is_zero


# -- validate_config ---------------------------------------------------------


def test_validate_config_valid_f2():
    rep = validate_config(2, [DensePoly.x(2), P(2, 1, 1, 1)])
    assert rep.ok
    assert rep.metabelian_flags == []
    assert any("x-1" in note for note in rep.notes)


def test_validate_config_rejects_x_plus_1_over_f2():
    rep = validate_config(2, [DensePoly.x(2), P(2, 1, 1)])
    assert not rep.ok
    assert any("x-1" in msg for msg in rep.problems)


def test_validate_config_flags_metabelian_condition():
    # x^2+1 over F_3 is irreducible but has f(1) = 2 != 1
    rep = validate_config(3, [DensePoly.x(3), P(3, 1, 0, 1)])
    assert rep.ok
    assert rep.metabelian_flags
    strict = validate_config(3, [DensePoly.x(3), P(3, 1, 0, 1)], require_one_at_one=True)
    assert not strict.ok


def _irreducible_exhaustive(f):
    """Trial division by every monic polynomial of degree 1..d/2."""
    d = f.degree
    if d is NEG_INF or d == 0:
        return False
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(range(f.p), repeat=e):
            if (f % DensePoly(f.p, tail + (1,))).is_zero:
                return False
    return True


@pytest.mark.parametrize("p, max_deg", [(2, 5), (3, 5), (5, 3)])
def test_is_irreducible_matches_exhaustive_search(p, max_deg):
    # every polynomial of degree <= max_deg, monic or not, zero included
    for coeffs in itertools.product(range(p), repeat=max_deg + 1):
        f = DensePoly(p, coeffs)
        assert f.is_irreducible() == _irreducible_exhaustive(f), f


def test_is_irreducible_matches_sympy():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    rng = random.Random(43)
    cases = [(4093, [3, 1, 0, 0, 0, 0, 1])]  # x^6+x+3, irreducible
    for p in (2, 3, 7, 4093):
        for _ in range(40):
            cases.append((p, [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1]))
    for p, coeffs in cases:
        expected = galoistools.gf_irreducible_p(coeffs[::-1], p, ZZ)
        assert DensePoly(p, coeffs).is_irreducible() == expected, (p, coeffs)
    assert DensePoly(4093, [3, 1, 0, 0, 0, 0, 1]).is_irreducible()


def test_validate_config_rejects_reducible_nonmonic_duplicate():
    p = 2
    rep = validate_config(p, [DensePoly.x(p), P(p, 1, 0, 1)])  # x^2+1 = (x+1)^2
    assert not rep.ok
    rep = validate_config(p, [DensePoly.x(p), DensePoly.x(p)])
    assert not rep.ok
    rep = validate_config(5, [DensePoly.x(5), P(5, 1, 2)])  # 2x+1 not monic
    assert not rep.ok
    rep = validate_config(4, [DensePoly.x(2)])
    assert not rep.ok


def test_validate_config_requires_leading_x():
    rep = validate_config(2, [P(2, 1, 1, 1), DensePoly.x(2)])
    assert not rep.ok


# -- ring laws on random samples ---------------------------------------------


def _ring_law_triples(sampler, add, mul, zero, count, rng):
    for _ in range(count):
        a, b, c = sampler(rng), sampler(rng), sampler(rng)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, zero) == a


def test_ring_laws_dense_poly():
    rng = random.Random(2)
    _ring_law_triples(
        lambda r: random_poly(r, 3, 4),
        lambda a, b: a + b,
        lambda a, b: a * b,
        DensePoly.zero(3),
        1000,
        rng,
    )


def test_ring_laws_sfraction():
    rng = random.Random(3)
    ring = ring_f2()
    _ring_law_triples(
        lambda r: random_fraction(r, ring, max_deg=3, max_exp=1),
        lambda a, b: a + b,
        lambda a, b: a * b,
        ring.zero,
        1000,
        rng,
    )


def random_laurent(rng, p, d, span=2, terms=4):
    data = {}
    for _ in range(rng.randrange(terms + 1)):
        e = tuple(rng.randrange(-span, span + 1) for _ in range(d))
        data[e] = rng.randrange(1, p)
    return MultiLaurent(p, d, data)


def test_ring_laws_multilaurent():
    rng = random.Random(4)
    _ring_law_triples(
        lambda r: random_laurent(r, 3, 2),
        lambda a, b: a + b,
        lambda a, b: a * b,
        MultiLaurent.zero(3, 2),
        1000,
        rng,
    )


def test_ring_laws_multisfraction():
    rng = random.Random(5)
    # g = x^2+x+1 and its square x^4+x^2+1, which is reducible
    for g in (P(2, 1, 1, 1), P(2, 1, 0, 1, 0, 1)):
        mring = MultiLocalizedRing(2, 2, g)

        def sampler(r):
            return mring.fraction(
                random_laurent(r, 2, 2), tuple(r.randrange(2) for _ in range(2))
            )

        _ring_law_triples(
            sampler, lambda a, b: a + b, lambda a, b: a * b, mring.zero, 1000, rng
        )


# -- multivariate exact division ----------------------------------------------


def test_divexact_univariate_round_trip():
    rng = random.Random(6)
    g = P(2, 1, 1, 1)
    for _ in range(200):
        a = random_laurent(rng, 2, 2)
        axis = rng.randrange(2)
        prod = a.mul_univariate(g, axis)
        q = prod.divexact_univariate(g, axis)
        assert q == a
    # non-multiples are rejected
    one = MultiLaurent.one(2, 2)
    assert one.divexact_univariate(g, 0) is None


def test_divexact_univariate_with_trailing_zero_divisor():
    # g divisible by x: division happens in the Laurent ring
    p = 5
    g = P(p, 0, 1, 1)  # x + x^2
    a = MultiLaurent(p, 1, {(-1,): 2, (3,): 1})
    prod = a.mul_univariate(g, 0)
    assert prod.divexact_univariate(g, 0) == a


def test_multisfraction_eval_at_ones():
    mring = MultiLocalizedRing(2, 2, P(2, 1, 1, 1))
    a = mring.fraction(MultiLaurent(2, 2, {(1, 0): 1, (0, 0): 1}), (1, 0))
    # aug(num) = 0
    assert a.eval_at_one() == 0
    b = mring.fraction(MultiLaurent.one(2, 2), (2, 1))
    assert b.eval_at_one() == 1


# -- units --------------------------------------------------------------------


def test_unit_arithmetic_and_fraction_action():
    ring = ring_f3()
    a = ring.fraction(P(3, 1, 1), (0, 2))
    # 2 x / f_1, then its inverse 2 f_1 / x
    b = a.mul_unit(2, (1, -1))
    assert b.mul_unit(2, (-1, 1)) == a
    assert a.mul_unit(1, (0, 0)) is a
    # the action matches multiplication by the unit as a fraction
    assert b == a * ring.fraction(P(3, 0, 2), (0, 1))


def test_reduce_mod_pivot_pow():
    ring = ring_f2()
    # 1/x mod (x-1)^2: inverse of x mod x^2+1 over F_2 is x
    a = ring.fraction(DensePoly.one(2), (1, 0))
    red = a.reduce_mod_pivot_pow(2)
    assert (red * DensePoly.x(2)) % ring.pivot_pow(2) == DensePoly.one(2)
