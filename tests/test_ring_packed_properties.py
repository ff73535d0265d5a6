"""The packed F_2[x] storage of DensePoly against its tuple storage, on
drawn operands.

Every contract operation runs on both storages of the same operands (built
by `both` of tests/test_ring_packed.py), and the results must be the same
polynomials, each still in its operands' storage.  Operands reach degree
1,100, the range of the Borel m = 4, p = 2 configs.  The localized ring
scales and divides by f_0 = x as a shift on either storage; the generic
product and division are its oracle.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_ring_packed import both  # noqa: E402

from selfsim.ring import DensePoly, LocalizedRing, NotInvertible, _canon  # noqa: E402

MAX_DEGREE = 1100


def same(packed, oracle):
    """packed is the packed storage of the tuple-stored polynomial oracle."""
    return (
        packed._bits is not None
        and oracle._bits is None
        and packed.to_json() == list(oracle.coeffs)
    )


def polys(max_degree):
    """Bits of polynomials of degree at most max_degree: short, dense and
    sparse."""
    dense = st.integers(0, 2 ** (max_degree + 1) - 1)
    short = st.integers(0, 2**12 - 1)
    sparse = st.lists(st.integers(0, max_degree), max_size=6).map(
        lambda es: sum(1 << e for e in set(es))
    )
    return st.one_of(short, dense, sparse)


@settings(max_examples=60, deadline=None)
@given(polys(MAX_DEGREE), polys(MAX_DEGREE), st.integers(-5, 5))
def test_arithmetic_matches_the_tuple_oracle(a_bits, b_bits, c):
    (pa, ta), (pb, tb) = both(a_bits), both(b_bits)
    assert same(pa, ta) and same(pb, tb)
    assert same(pa + pb, ta + tb)
    assert same(pa - pb, ta - tb)
    assert same(-pa, -ta)
    assert same(pa * pb, ta * tb)
    assert same(pa.mul_scalar(c), ta.mul_scalar(c))
    if not tb.is_zero:
        (pq, pr), (tq, tr) = divmod(pa, pb), divmod(ta, tb)
        assert same(pq, tq) and same(pr, tr)
        assert same(pa % pb, ta % tb)
    for f, g in ((pa, ta), (pb, tb)):
        assert f.eval(0) == g.eval(0) and f.eval(1) == g.eval(1)
        assert f.eval(-3) == g.eval(-3) and f.eval(6) == g.eval(6)
        assert f.degree == g.degree and f.lead == g.lead
        assert f.is_zero == g.is_zero and f.is_monic == g.is_monic
        assert f.to_json() == g.to_json() and f.render() == g.render()


@settings(max_examples=60, deadline=None)
@given(polys(MAX_DEGREE), polys(MAX_DEGREE))
def test_equality_and_hash_match_the_tuple_oracle(a_bits, b_bits):
    (pa, ta), (pb, tb) = both(a_bits), both(b_bits)
    assert (pa == pb) == (ta == tb) == (a_bits == b_bits)
    # equal values built apart compare equal and hash alike
    again = DensePoly(2, pa.to_json())
    assert again == pa and hash(again) == hash(pa)
    assert pa + pb - pb == pa and hash(pa + pb - pb) == hash(pa)
    assert {pa, pb, again} == ({pa} if a_bits == b_bits else {pa, pb})
    # the two storages never mix: the tuple storage at p = 2 is only the oracle
    assert pa != ta and ta != pa


@settings(max_examples=25, deadline=None)
@given(polys(MAX_DEGREE), polys(MAX_DEGREE))
def test_ext_gcd_and_invmod_match_the_tuple_oracle(a_bits, b_bits):
    (pa, ta), (pb, tb) = both(a_bits), both(b_bits)
    (pg, ps, pt), (tg, ts, tt) = pa.ext_gcd(pb), ta.ext_gcd(tb)
    assert same(pg, tg) and same(ps, ts) and same(pt, tt)
    assert ps * pa + pt * pb == pg
    if tb.degree < 1:
        return
    if tg.degree == 0:
        inv = pa.invmod(pb)
        assert same(inv, ta.invmod(tb))
        assert (inv * pa % pb).to_json() == [1]
    else:
        with pytest.raises(NotInvertible):
            pa.invmod(pb)
        with pytest.raises(NotInvertible):
            ta.invmod(tb)


@settings(max_examples=40, deadline=None)
@given(polys(150), st.integers(0, 6), polys(200), st.integers(0, 300))
def test_pow_matches_the_tuple_oracle(a_bits, k, m_bits, km):
    (pa, ta), (pm, tm) = both(a_bits), both(m_bits)
    assert same(pa**k, ta**k)
    if not tm.is_zero:
        assert same(pow(pa, km, pm), pow(ta, km, tm))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**30), 10**30), max_size=70))
def test_from_json_reads_negative_and_large_coefficients(data):
    oracle = _canon(2, data)
    if len(oracle) - 1 > 64:
        with pytest.raises(ValueError, match="degree"):
            DensePoly.from_json(2, data)
        return
    f = DensePoly.from_json(2, data)
    assert same(f, DensePoly._raw(2, oracle))
    assert f == DensePoly(2, [c % 2 for c in data])


# -- f_0 = x in the localized ring: a shift --------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_axis_0_shift_matches_the_generic_product_and_division(p, data):
    # the packed storage at p = 2, the tuple storage at p = 3
    ring = LocalizedRing(p, [DensePoly.x(p)])
    # numerators up to degree 40, the zero polynomial and multiples of x among them
    num = DensePoly(p, data.draw(st.lists(st.integers(0, p - 1), max_size=41)))
    k = data.draw(st.integers(0, 20))
    x = DensePoly.x(p)
    scaled = ring._scale(num, 0, k)
    assert scaled == num * x**k and (scaled._bits is None) == (num._bits is None)
    for f in (num, scaled):
        q, r = divmod(f, x)
        got = ring._divide(f, 0)
        if r.is_zero:
            assert got == q and (got._bits is None) == (f._bits is None)
        else:
            assert got is None
