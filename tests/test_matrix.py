"""Tests for triangular/polynomial matrices, including the closed-form
conjugation checked against a naive rational-matrix oracle, and the
fraction-free determinant and inverse checked against Laplace expansion."""

import random

import pytest

from selfsim.instances.affine import AffineInstance
from selfsim.instances.borel import BorelInstance
from selfsim.matrix import (
    PolyMat,
    TriMat,
    apply_A,
    conj_by_A,
    rho,
    tri_inverse,
)
from selfsim.ring import (
    NEG_INF,
    DensePoly,
    NotDivisible,
    NotInvertible,
)


def P(p, *coeffs):
    return DensePoly(p, coeffs)


def random_poly(rng, p, max_deg):
    return DensePoly(p, [rng.randrange(p) for _ in range(rng.randrange(max_deg + 2))])


def random_triangular(rng, p, m, max_deg=2, unit_diagonal=True):
    """Upper triangular over F_p[x]: ones on the diagonal, or random
    polynomials there (one in place of zero)."""
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if j < i:
                row.append(DensePoly.zero(p))
            elif j == i:
                d = DensePoly.one(p) if unit_diagonal else random_poly(rng, p, max_deg)
                row.append(DensePoly.one(p) if d.is_zero else d)
            else:
                row.append(random_poly(rng, p, max_deg))
        rows.append(row)
    return TriMat(p, rows)


def transversal_style(rng, p, m):
    """Unitriangular with deg(entry at (i,j)) <= j-i-1 (or zero)."""
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if j < i:
                row.append(DensePoly.zero(p))
            elif j == i:
                row.append(DensePoly.one(p))
            else:
                row.append(DensePoly(p, [rng.randrange(p) for _ in range(j - i)]))
        rows.append(row)
    return TriMat(p, rows)


def scalar(p, m, d):
    return TriMat(p, [[d if i == j else DensePoly.zero(p) for j in range(m)] for i in range(m)])


def det(t):
    out = DensePoly.one(t.p)
    for i in range(t.size):
        out = out * t.rows[i][i]
    return out


# -- tri_inverse ---------------------------------------------------------------


def test_tri_inverse_identity():
    ident = TriMat.identity(2, 3)
    assert tri_inverse(ident) == ident


def test_tri_inverse_2x2_negates_corner():
    c = P(2, 1, 1)
    one, zero = DensePoly.one(2), DensePoly.zero(2)
    t = TriMat(2, [[one, c], [zero, one]])
    inv = tri_inverse(t)
    assert inv.rows[0][1] == -c
    assert t * inv == TriMat.identity(2, 2)


def test_tri_inverse_transversal_degree_bound():
    # inverses of degree-bounded unitriangular matrices keep the bound
    rng = random.Random(23)
    for _ in range(50):
        t = transversal_style(rng, 2, 3)
        inv = tri_inverse(t)
        assert t * inv == TriMat.identity(2, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                e = inv.rows[i][j]
                assert e.degree is NEG_INF or e.degree <= j - i - 1


def test_tri_inverse_props():
    # the adjugate: t * adj(t) = adj(t) * t = det(t) I, and adj(adj(t)) =
    # det(t)^(m-2) t; for unitriangular t it is the inverse
    rng = random.Random(29)
    for p in (2, 3):
        for m in (2, 3, 4):
            for unit_diagonal in (True, False):
                for _ in range(15):
                    t = random_triangular(rng, p, m, unit_diagonal=unit_diagonal)
                    adj = tri_inverse(t)
                    d = det(t)
                    assert t * adj == scalar(p, m, d) == adj * t
                    assert tri_inverse(adj) == scalar(p, m, d ** (m - 2)) * t


def _naive_product(a, b):
    """The oracle: every entry the plain sum over every k, zero factors
    included."""
    n, zero = a.size, DensePoly.zero(a.p)
    return tuple(
        tuple(sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), zero) for j in range(n))
        for i in range(n)
    )


def test_trimat_mul_matches_naive_sum():
    # the product skips zero factors; against the plain sum over every k,
    # on triangular matrices whose entries include 0, 1 and non-units, and
    # on sparse ones: the identity, the Borel generators (elementary and
    # diagonal) and rows that are zero off the diagonal
    rng = random.Random(19)
    for p in (2, 3):
        zero = DensePoly.zero(p)
        choices = [zero, DensePoly.one(p), DensePoly.x(p), P(p, 1, 1), P(p, 1, 0, 1)]
        pairs = []
        for _ in range(30):
            m = rng.randrange(1, 5)
            pairs.append(tuple(
                TriMat(p, [
                    [rng.choice(choices[1:]) if i == j else rng.choice(choices) if j > i else zero
                     for j in range(m)]
                    for i in range(m)
                ])
                for _ in range(2)
            ))
        for m in (2, 3):
            gens = list(BorelInstance(p, m, [DensePoly.x(p)]).generators().values())
            diagonal = scalar(p, m, P(p, 1, 1))
            sparse = TriMat(p, [row[: i + 1] + (zero,) * (m - i - 1) if i % 2 else row
                                for i, row in enumerate(random_triangular(rng, p, m).rows)])
            operands = gens + [TriMat.identity(p, m), diagonal, sparse]
            pairs += [(a, b) for a in operands for b in operands]
        for a, b in pairs:
            m = a.size
            assert (a * b).rows == _naive_product(a, b)
            assert a * tri_inverse(a) == scalar(p, m, det(a)) == tri_inverse(a) * a


def test_trimat_rejects_lower_entries():
    # below the diagonal only zeros, on it no zero; any nonzero diagonal
    # entry is accepted
    one, zero, x = DensePoly.one(2), DensePoly.zero(2), DensePoly.x(2)
    with pytest.raises(ValueError):
        TriMat(2, [[one, zero], [one, one]])
    with pytest.raises(ValueError):
        TriMat(2, [[zero, one], [zero, one]])
    with pytest.raises(ValueError):
        TriMat(2, [[one, one], [zero]])
    assert TriMat(2, [[x, one], [zero, P(2, 1, 1)]]).rows[0][0] == x


# -- rho -----------------------------------------------------------------------


def test_rho_cases():
    p = 2
    z = PolyMat(p, [[DensePoly.zero(p)] * 2] * 2)
    assert rho(z) is NEG_INF
    assert rho(PolyMat.identity(p, 3)) == 0
    m = PolyMat(
        p,
        [
            [DensePoly.one(p), P(p, 0, 1, 0, 1)],
            [DensePoly.zero(p), DensePoly.one(p)],
        ],
    )
    assert rho(m) == 3
    assert rho((DensePoly.zero(p), P(p, 1, 1))) == 1


def test_rho_submultiplicative():
    rng = random.Random(31)
    p = 3
    for _ in range(100):
        a = PolyMat(p, [[random_poly(rng, p, 3) for _ in range(3)] for _ in range(3)])
        b = PolyMat(p, [[random_poly(rng, p, 3) for _ in range(3)] for _ in range(3)])
        prod = a * b
        if rho(prod) is not NEG_INF:
            assert rho(prod) <= rho(a) + rho(b)


# -- conjugation by A ----------------------------------------------------------


def _rational_conj_oracle(b: PolyMat) -> PolyMat:
    """(x-1) A is a polynomial matrix; so is A^{-1}.  Compute
    ((x-1)A) b A^{-1} with polynomial arithmetic, then divide every entry
    by x-1 exactly."""
    n = b.size
    p = b.p
    pivot = DensePoly(p, (-1, 1))
    zero, one = DensePoly.zero(p), DensePoly.one(p)
    a_bar = [[zero] * n for _ in range(n)]  # (x-1) * A
    for i in range(n - 1):
        a_bar[i][i + 1] = pivot
    a_bar[n - 1][0] = one
    a_inv = [[zero] * n for _ in range(n)]
    for i in range(n - 1):
        a_inv[i + 1][i] = one
    a_inv[0][n - 1] = pivot
    prod = PolyMat(p, a_bar) * b * PolyMat(p, a_inv)
    rows = []
    for row in prod.rows:
        out = []
        for e in row:
            q, r = divmod(e, pivot)
            assert r.is_zero
            out.append(q)
        rows.append(out)
    return PolyMat(p, rows)


def random_borel_matrix(rng, p, n, factors=4):
    """Random element of the affine Borel subgroup as a product of
    elementary and diagonal generators."""
    pivot = DensePoly(p, (-1, 1))
    m = PolyMat.identity(p, n)
    for _ in range(factors):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        rows = [list(r) for r in PolyMat.identity(p, n).rows]
        if kind == 0 and i < j:
            rows[i][j] = pivot * random_poly(rng, p, 1)
        elif kind == 1 and i > j:
            rows[i][j] = random_poly(rng, p, 1)
        else:
            rows[i][i] = DensePoly.constant(p, rng.randrange(1, p))
        m = m * PolyMat(p, rows)
    return m


def test_conj_by_A_identity():
    ident = PolyMat.identity(2, 3)
    assert conj_by_A(ident) == ident


def test_conj_by_A_matches_oracle():
    rng = random.Random(37)
    for n in (3, 4):
        for p in (2, 3):
            for _ in range(60):
                b = random_borel_matrix(rng, p, n)
                assert conj_by_A(b) == _rational_conj_oracle(b)


def test_conj_by_A_order_n():
    rng = random.Random(41)
    for n in (3, 4):
        for _ in range(50):
            b = random_borel_matrix(rng, 2, n)
            c = b
            for _ in range(n):
                c = conj_by_A(c)
            assert c == b


def test_conj_by_A_relocates_elementary_entry():
    p = 2
    n = 3
    pivot = DensePoly(p, (-1, 1))
    rows = [list(r) for r in PolyMat.identity(p, n).rows]
    rows[0][1] = pivot  # I + (x-1) E_{1,2}
    res = conj_by_A(PolyMat(p, rows))
    assert res == _rational_conj_oracle(PolyMat(p, rows))
    # entry moves to (n, 1) with the (x-1) factor divided out
    assert res.rows[2][0] == DensePoly.one(p)


def test_conj_by_A_rejects_non_borel():
    rows = [list(r) for r in PolyMat.identity(2, 3).rows]
    rows[0][1] = DensePoly.one(2)  # constant above the diagonal
    with pytest.raises(NotDivisible):
        conj_by_A(PolyMat(2, rows))


# -- apply_A -------------------------------------------------------------------


def test_apply_A_shifts_and_divides():
    p = 2
    pivot = DensePoly(p, (-1, 1))
    v = (pivot, DensePoly.zero(p), DensePoly.zero(p))
    assert apply_A(v) == (DensePoly.zero(p), DensePoly.zero(p), DensePoly.one(p))
    z = (DensePoly.zero(p),) * 3
    assert apply_A(z) == z
    q, r_poly = P(p, 1, 1, 1), P(p, 0, 1)
    assert apply_A((DensePoly.zero(p), q, r_poly)) == (q, r_poly, DensePoly.zero(p))


def test_apply_A_requires_divisibility():
    with pytest.raises(NotDivisible):
        apply_A((DensePoly.one(2), DensePoly.zero(2)))


def test_apply_A_iterated_n_times_divides_everything():
    rng = random.Random(43)
    p = 3
    pivot = DensePoly(p, (-1, 1))
    for _ in range(50):
        base = tuple(random_poly(rng, p, 3) for _ in range(3))
        v = tuple(e * pivot for e in base)
        w = v
        for _ in range(3):
            w = apply_A(w)
        assert w == base


# -- determinants and inverses ---------------------------------------------------


def test_polymat_inverse_gl():
    rng = random.Random(47)
    for n in (2, 3, 4):
        for _ in range(30):
            b = random_borel_matrix(rng, 2, n)
            binv = b.inverse_gl()
            assert b * binv == PolyMat.identity(2, n)


def test_polymat_inverse_rejects_nonconstant_det():
    p = 2
    m = PolyMat(p, [[DensePoly.x(p), DensePoly.zero(p)], [DensePoly.zero(p), DensePoly.one(p)]])
    with pytest.raises(NotInvertible):
        m.inverse_gl()


def test_polymat_mul_and_apply_match_naive_sums():
    # products over every k, zero factors included, against sum_of_products,
    # on random matrices and on sparse ones: matrices with zero rows, the
    # identity and the affine generators, which are elementary matrices
    rng = random.Random(53)
    for p in (2, 3):
        zero = DensePoly.zero(p)
        for n in (1, 2, 3):
            operands = [PolyMat(p, [[random_poly(rng, p, 2) for _ in range(n)] for _ in range(n)])
                        for _ in range(20)]
            operands += [
                PolyMat(p, [(zero,) * n if i % 2 == k else row for i, row in enumerate(m.rows)])
                for k, m in enumerate(operands[:2])
            ]
            operands.append(PolyMat.identity(p, n))
            if n > 1:
                operands += [g.b for g in AffineInstance(p, n).generators().values()]
            pairs = list(zip(operands[:10], operands[10:20]))
            pairs += [(a, b) for a in operands[18:] for b in operands[18:]]
            for a, b in pairs:
                v = tuple(random_poly(rng, p, 2) for _ in range(n))
                assert a * b == PolyMat(p, _naive_product(a, b))
                assert a.apply(v) == tuple(sum((x * y for x, y in zip(row, v)), zero) for row in a.rows)


def test_one_product_two_classes(monkeypatch):
    # one product and one elimination serve both classes, and the result
    # keeps the class of its operands; TriMat adds only its validation
    assert [k for k, v in vars(TriMat).items() if callable(v)] == ["__init__"]
    rng = random.Random(59)
    for p in (2, 3, 5):
        t, u = (random_triangular(rng, p, 3, unit_diagonal=False) for _ in range(2))
        a, b = (random_borel_matrix(rng, p, 3) for _ in range(2))
        assert type(t * u) is TriMat and type(tri_inverse(t)) is TriMat
        assert type(a * b) is PolyMat and type(a.inverse_gl()) is PolyMat
    # wrapping TriMat's product first and PolyMat's second, as the bench's
    # tracer does, counts Borel and affine products apart
    calls = []

    def counting(name, fn):
        return lambda x, y: calls.append(name) or fn(x, y)

    for name, klass in (("tri", TriMat), ("poly", PolyMat)):
        monkeypatch.setattr(klass, "__mul__", counting(name, getattr(klass, "__mul__")))
    for p in (2, 3, 5):
        borel, affine = BorelInstance(p, 2, [DensePoly.x(p)]), AffineInstance(p, 3)
        for inst, name in ((borel, "tri"), (affine, "poly")):
            gens = list(inst.generators().values())
            for g, h in zip(gens, gens[1:]):
                inst.multiply(g, h)
                assert calls == [name]
                calls.clear()


def test_trimat_and_polymat_never_compare_equal():
    for p in (2, 3):
        for n in (1, 2, 3):
            t, m = TriMat.identity(p, n), PolyMat.identity(p, n)
            assert t.rows == m.rows
            assert t != m and m != t
            assert (type(t), type(m)) == (TriMat, PolyMat)
            assert repr(t).startswith("TriMat(") and repr(m).startswith("PolyMat(")


def _laplace_det(p: int, rows, cols) -> DensePoly:
    """The oracle: determinant of the square submatrix on the given rows
    and columns, expanded along its first row (n! products)."""
    if len(cols) == 1:
        return rows[0][cols[0]]
    acc = DensePoly.zero(p)
    for k, c in enumerate(cols):
        top = rows[0][c]
        if not top.is_zero:
            term = top * _laplace_det(p, rows[1:], cols[:k] + cols[k + 1 :])
            acc = acc - term if k % 2 else acc + term
    return acc


def _laplace_inverse(m: PolyMat) -> PolyMat:
    """The oracle: the adjugate of signed Laplace minors over the
    determinant, which must be a nonzero constant."""
    p, n = m.p, m.size
    d = _laplace_det(p, m.rows, tuple(range(n)))
    assert d.degree == 0
    dinv = pow(d.lead, p - 2, p)
    if n == 1:
        return PolyMat(p, [[DensePoly.constant(p, dinv)]])
    idx = tuple(range(n))
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        rows = m.rows[:i] + m.rows[i + 1 :]
        for j in range(n):
            minor = _laplace_det(p, rows, idx[:j] + idx[j + 1 :])
            out[j][i] = minor.mul_scalar(dinv if (i + j) % 2 == 0 else -dinv)
    return PolyMat(p, out)


@pytest.mark.parametrize("p", [2, 3])
def test_inverse_of_products_of_affine_generators_at_n_8(p):
    # words in the matrix generators of the n = 8 affine family, whose
    # inverse is known to exist; the inverse is checked on both sides
    rng = random.Random(97)
    inst = AffineInstance(p, 8)
    gens = [g.b for name, g in inst.generators().items() if name[0] in "abd"]
    ident = PolyMat.identity(p, 8)
    for _ in range(6):
        b = ident
        for _ in range(rng.randrange(4, 24)):
            b = b * rng.choice(gens)
        inv = b.inverse_gl()
        assert b * inv == ident == inv * b
        assert b.det().degree == 0


def test_inverse_makes_cubically_many_products(monkeypatch):
    # one dense 8 x 8 inverse takes at most 4 n^3 polynomial products,
    # where the determinant alone took about 8! by Laplace expansion
    rng = random.Random(101)
    p, n = 3, 8
    zero, one, pivot = DensePoly.zero(p), DensePoly.one(p), DensePoly(p, (-1, 1))

    def entry():
        return DensePoly(p, [rng.randrange(p) for _ in range(3)] + [1])

    lower = PolyMat(p, [[entry() if j < i else one if j == i else zero for j in range(n)] for i in range(n)])
    upper = PolyMat(p, [[pivot * entry() if j > i else one if j == i else zero for j in range(n)] for i in range(n)])
    m = lower * upper
    assert not any(e.is_zero for row in m.rows for e in row)
    calls = []
    mul = DensePoly.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(DensePoly, "__mul__", counting)
    inv = m.inverse_gl()
    monkeypatch.undo()
    assert len(calls) <= 4 * n**3
    assert m * inv == PolyMat.identity(p, n)
