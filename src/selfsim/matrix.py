"""Exact matrices over the ring layer.

Two matrix flavors, sharing one small base (``_SquareMat``: trusted
construction, the identity, equality and rendering), are used by the
instance families:

* upper-triangular matrices over F_p[x] (``TriMat``), the normalized
  representatives of the triangular matrix groups' elements, inverted
  modulo scalars by their adjugate (``tri_inverse``);
* square matrices over F_p[x] (``PolyMat``) acting on columns given as
  tuples of polynomials, for the affine family, with the shift-style
  conjugation by the companion matrix A computed in closed form, and the
  determinant and inverse by one fraction-free elimination (Bareiss 1968).

In closed form, conjugation by A permutes entries cyclically and moves a
single factor of (x-1) in and out of the last row/column:

    (A b A^{-1})[i][j] = b[i+1 mod n][j+1 mod n] * (x-1)^eps,

with eps = +1 when j is the last index (and i is not), eps = -1 when i is
the last index (and j is not), and eps = 0 otherwise.  Exactness of the
eps = -1 division is enforced and fails precisely off the affine Borel
subgroup.  This avoids a rational-function matrix type; a naive rational
conjugation exists only in the tests as an oracle.
"""

from __future__ import annotations

import functools
from operator import mul

from .ring import NEG_INF, DensePoly, NotDivisible, NotInvertible


class _SquareMat:
    """A square matrix over F_p[x] stored as a tuple of row tuples.  Two
    matrices are equal when they have the same class and the same rows, so
    a TriMat never equals a PolyMat."""

    __slots__ = ("p", "size", "rows", "_hash")

    def __init__(self, p: int, rows):
        self.p = p
        self.rows = tuple(tuple(row) for row in rows)
        self.size = len(self.rows)
        self._hash = None
        if any(len(row) != self.size for row in self.rows):
            raise ValueError("non-square matrix")

    @classmethod
    def _raw(cls, p: int, rows):
        """Internal: rows valid for cls by construction."""
        out = cls.__new__(cls)
        out.p, out.rows, out.size, out._hash = p, tuple(map(tuple, rows)), len(rows), None
        return out

    @classmethod
    def identity(cls, p: int, size: int):
        one, zero = DensePoly.one(p), DensePoly.zero(p)
        return cls._raw(p, [[one if i == j else zero for j in range(size)] for i in range(size)])

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def render(self) -> str:
        return "[" + ",".join(
            "[" + ",".join(e.render() for e in row) + "]" for row in self.rows
        ) + "]"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


class TriMat(_SquareMat):
    """An upper-triangular square matrix over F_p[x] with no zero on the
    diagonal."""

    __slots__ = ()

    def __init__(self, p: int, rows):
        super().__init__(p, rows)
        for i, row in enumerate(self.rows):
            if any(not e.is_zero for e in row[:i]):
                raise ValueError("entry below the diagonal is nonzero")
            if row[i].is_zero:
                raise ValueError("zero on the diagonal")

    def __mul__(self, other: "TriMat") -> "TriMat":
        if self.size != other.size:
            raise ValueError("size mismatch")
        n, p = self.size, self.p
        zero = DensePoly.zero(p)
        out = [[zero] * n for _ in range(n)]
        a, b = self.rows, other.rows
        for i in range(n):
            for j in range(i, n):
                out[i][j] = sum_of_products(p, ((a[i][k], b[k][j]) for k in range(i, j + 1)))
        return TriMat._raw(p, out)


def sum_of_products(p: int, pairs) -> DensePoly:
    """The sum of x * y over the pairs of polynomials, skipping zero
    factors and not adding the first term to zero."""
    acc = None
    for x, y in pairs:
        if x.is_zero or y.is_zero:
            continue
        acc = x * y if acc is None else acc + x * y
    return DensePoly.zero(p) if acc is None else acc


def tri_inverse(t: TriMat) -> TriMat:
    """The adjugate det(t) * t^{-1}, by back substitution: b[i][i] is the
    product of the other diagonal entries, and for i < j

        b[i][j] = -(sum_{i<k<=j} t[i][k] b[k][j]) / t[i][i],

    a division that is exact because b is the adjugate, and that is
    skipped where t[i][i] is one.  For unitriangular t, b is the inverse."""
    n, p, a = t.size, t.p, t.rows
    zero, one = DensePoly.zero(p), DensePoly.one(p)
    diag = [a[i][i] for i in range(n)]
    b = [[zero] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = functools.reduce(mul, diag[:i] + diag[i + 1 :], one)
    for i in range(n - 1, -1, -1):
        d = diag[i]
        for j in range(i + 1, n):
            acc = sum_of_products(p, ((a[i][k], b[k][j]) for k in range(i + 1, j + 1)))
            if d != one:
                acc = divmod(acc, d)[0]
            b[i][j] = -acc
    return TriMat._raw(p, b)


class PolyMat(_SquareMat):
    """A square matrix over F_p[x]."""

    __slots__ = ()

    def __mul__(self, other: "PolyMat") -> "PolyMat":
        if self.size != other.size:
            raise ValueError("size mismatch")
        n, p, a, b = self.size, self.p, self.rows, other.rows
        return PolyMat._raw(p, [
            [sum_of_products(p, ((a[i][k], b[k][j]) for k in range(n))) for j in range(n)]
            for i in range(n)
        ])

    def apply(self, v):
        """Matrix-vector product, v a sequence of polynomials (a column)."""
        return tuple(sum_of_products(self.p, zip(row, v)) for row in self.rows)

    def det(self) -> DensePoly:
        """Determinant by fraction-free elimination (`_eliminate`)."""
        return _eliminate(self.p, [list(row) for row in self.rows])

    def inverse_gl(self) -> "PolyMat":
        """Inverse when the determinant d is a nonzero constant: eliminating
        [B | I] leaves d B^{-1} in the right block, which is scaled by 1/d."""
        n, p = self.size, self.p
        rows = [list(a + b) for a, b in zip(self.rows, PolyMat.identity(p, n).rows)]
        d = _eliminate(p, rows)
        if d.degree != 0:
            raise NotInvertible("determinant is not a nonzero constant")
        dinv = pow(d.lead, p - 2, p)
        return PolyMat._raw(p, [[e.mul_scalar(dinv) for e in row[n:]] for row in rows])

    @staticmethod
    def from_json(p: int, data) -> "PolyMat":
        """From rows of coefficient lists, JSON integers only."""
        return PolyMat(p, [[DensePoly.from_json(p, e) for e in row] for row in data])


def _eliminate(p: int, rows: list) -> DensePoly:
    """Bareiss's fraction-free Gauss-Jordan elimination of the leading n x n
    block of n rows, in place: step k sets a_ij = (a_kk a_ij - a_ik a_kj) / d
    for i != k < j, d the previous pivot, a division that is exact.  A zero
    pivot swaps in a later row and negates the displaced one.  Returns the
    last pivot, det of the block (zero if singular); the columns after the
    block then hold it times the block's inverse applied to them."""
    n, one, prev = len(rows), DensePoly.one(p), DensePoly.one(p)
    for k in range(n):
        r = next((i for i in range(k, n) if not rows[i][k].is_zero), None)
        if r is None:
            return DensePoly.zero(p)
        if r != k:
            rows[k], rows[r] = rows[r], [-e for e in rows[k]]
        top, piv = rows[k], rows[k][k]
        for row in rows:
            m = row[k]
            if row is top or (m.is_zero and piv == prev):
                continue
            new = [piv * a - m * b for a, b in zip(row[k + 1 :], top[k + 1 :])]
            row[k + 1 :] = new if prev == one else [divmod(e, prev)[0] for e in new]
        prev = piv
    return prev


def rho(c) -> int | float:
    """Maximal entry degree of a PolyMat or a column of polynomials;
    -inf for the zero matrix/vector."""
    entries = []
    if isinstance(c, PolyMat):
        for row in c.rows:
            entries.extend(row)
    else:
        entries = list(c)
    best = NEG_INF
    for e in entries:
        if not e.is_zero and e.degree > best:
            best = e.degree
    return best


def conj_by_A(b: PolyMat) -> PolyMat:
    """Conjugation by the companion-style matrix A in closed form.

    Requires every entry above the diagonal to be divisible by x-1;
    raises NotDivisible otherwise.
    """
    n = b.size
    p = b.p
    pivot = DensePoly(p, (-1, 1))
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        si = (i + 1) % n
        for j in range(n):
            sj = (j + 1) % n
            entry = b.rows[si][sj]
            if i == n - 1 and j != n - 1:
                q, r = divmod(entry, pivot)
                if not r.is_zero:
                    raise NotDivisible(
                        "entry above the diagonal is not divisible by x-1"
                    )
                entry = q
            elif j == n - 1 and i != n - 1:
                entry = entry * pivot
            out[i][j] = entry
    return PolyMat._raw(p, out)


def apply_A(v) -> tuple:
    """The shift map (v_1, ..., v_n) -> (v_2, ..., v_n, v_1/(x-1)).

    Requires (x-1) | v_1; raises NotDivisible otherwise.
    """
    v = tuple(v)
    p = v[0].p
    pivot = DensePoly(p, (-1, 1))
    q, r = divmod(v[0], pivot)
    if not r.is_zero:
        raise NotDivisible("first coordinate is not divisible by x-1")
    return v[1:] + (q,)
