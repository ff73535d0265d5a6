"""The packed F_2[x] storage of DensePoly against its tuple storage.

At p = 2 the public constructors pack a polynomial into one int.  The
tuple storage every odd p uses stays reachable at p = 2 through the
trusted constructor `DensePoly._raw`, and is the oracle here and in
tests/test_ring_packed_properties.py, which draws its operands.  The
localized ring scales and divides by f_0 = x as a shift on either storage.
"""

import itertools

import pytest

from selfsim.ring import DensePoly, LocalizedRing, _canon


def both(bits):
    """The packed and the tuple-stored polynomial with these bits."""
    coeffs = [(bits >> i) & 1 for i in range(bits.bit_length())]
    return DensePoly(2, coeffs), DensePoly._raw(2, _canon(2, coeffs))


def test_is_irreducible_matches_the_tuple_oracle_up_to_degree_10():
    counts = [0] * 11
    for bits in range(1, 2**11):
        packed, oracle = both(bits)
        irreducible = packed.is_irreducible()
        assert irreducible == oracle.is_irreducible(), packed.render()
        counts[packed.degree] += irreducible
    # Gauss: the number of irreducible polynomials of each degree over F_2
    assert counts == [0, 2, 1, 2, 3, 6, 9, 18, 30, 56, 99]


def test_constructors_are_packed_at_p_2_only():
    for f in (
        DensePoly(2, (1, 1)), DensePoly.zero(2), DensePoly.one(2), DensePoly.x(2),
        DensePoly.constant(2, 3), DensePoly.from_json(2, [1, 0, 1]),
    ):
        assert f._bits is not None
    for p, f in itertools.product((3, 5), (DensePoly.zero, DensePoly.one, DensePoly.x)):
        assert f(p)._bits is None
    assert DensePoly.constant(2, 4).is_zero and DensePoly.constant(2, -1) == DensePoly.one(2)


def test_mixed_moduli_are_refused_by_the_packed_storage_too():
    f2, f3 = DensePoly.x(2), DensePoly.x(3)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, divmod):
        with pytest.raises(ValueError, match="mixed moduli"):
            op(f2, f3)
        with pytest.raises(ValueError, match="mixed moduli"):
            op(f3, f2)
    with pytest.raises(ZeroDivisionError):
        divmod(f2, DensePoly.zero(2))


# -- f_0 = x in the localized ring: a shift --------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_axis_0_needs_no_polynomial_product_or_division(p, monkeypatch):
    ring = LocalizedRing(p, [DensePoly.x(p)])
    num = DensePoly(p, [1, 1, 0, 1])
    calls = []
    for name in ("__mul__", "__divmod__"):
        original = getattr(DensePoly, name)
        monkeypatch.setattr(
            DensePoly, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    scaled = ring._scale(num, 0, 7)
    assert ring._divide(num, 0) is None
    assert ring._divide(scaled, 0) == ring._scale(num, 0, 6)
    assert calls == []
    # the fraction arithmetic on the one axis x trial-divides only by shifting
    a = ring.fraction(scaled, [9])
    b = a.mul_unit(1, (-3,)) + a._add_mul(a, num, (2,))
    assert a.den == (2,) and b.den == (5,)
    assert calls == []
