"""Exact-rational tameness degrees of character sets.

A character is a nonzero rational vector; characters are considered up to
positive scaling (they represent rays).  A set of character classes is
m-tame when no choice of m representatives (repetition allowed) sums to
zero; since repeated rays merge their positive coefficients, this is
equivalent to: no subset of at most m distinct points admits a vanishing
positive combination, i.e. the origin never lies in the open conic hull
of <= m of the points.

The combinations  sum c_i v_i = 0  form the dependence space ker V, V the
matrix whose columns are the k points.  A vector of ker V is elementary when
no nonzero vector of ker V has a smaller support; every vector of ker V is a
sum of elementary vectors whose signs agree with its own (Rockafellar, "The
elementary vectors of a subspace of R^N", 1969).  So the smallest subset
with a vanishing positive combination is the support of a sign-uniform
elementary vector, and the tameness degree is min(max_m, s - 1) for the
smallest such support s, or max_m when no elementary vector is
sign-uniform.  With d = dim ker V, the elementary vectors are, up to scale,
the vectors of the one-dimensional spaces {y in ker V : y_j = 0, j in Z}
for the sets Z of d - 1 coordinates.  One exact Gauss-Jordan elimination
over Fraction gives a basis of ker V, and one more per Z, of d - 1
equations in the coefficients of that basis, gives each space.

For the metabelian family over the basis f_0 = x, f_1, ..., f_{n-1} the
complement character set (Bieri and Strebel, "Valuations and finitely
presented metabelian groups", Proc. LMS 41, 1980) is the n+1 points

    e_0, ..., e_{n-1}  and  (-deg f_0, ..., -deg f_{n-1}),

whose tameness degree is exactly n: any n of them lie in an open
half-space, while all n+1 conically span the origin with coefficients
(deg f_0, ..., deg f_{n-1}, 1).  Its dependence space has d = 1: the only
Z is empty, and the degree takes the one elimination of V.  The finiteness
report derives from the tameness degree m: homological type FP_m but not
FP_{m+1}, and finite presentability exactly when m >= 2.  For this family
the module of a-exponents has finite exponent p and Krull dimension one,
where the tameness criterion for FP_m is a theorem, not a conjecture; the
report labels its basis accordingly.

The localized wreath family is different: its module is never 3-tame, so
those groups are never of type FP_3 (a static remark; this module does
not compute generic invariants).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

WREATH_TAMENESS_NOTE = (
    "the localized wreath-family module is never 3-tame, so those groups "
    "are never of homological type FP_3"
)


def _kernel(rows, k: int) -> list[list[Fraction]]:
    """A basis of {c in Q^k : r . c = 0 for every row r}: one Gauss-Jordan
    elimination, then one basis vector per free column."""
    reduced: list[tuple[int, list[Fraction]]] = []  # (pivot column, row)
    for row in rows:
        row = [Fraction(x) for x in row]
        for col, r in reduced:
            if row[col]:
                row = [x - row[col] * y for x, y in zip(row, r)]
        col = next((c for c in range(k) if row[c]), None)
        if col is None:
            continue
        row = [x / row[col] for x in row]
        reduced = [
            (c, [x - r[col] * y for x, y in zip(r, row)] if r[col] else r) for c, r in reduced
        ]
        reduced.append((col, row))
    pivots = {col for col, _ in reduced}
    basis = []
    for free in range(k):
        if free not in pivots:
            v = [Fraction(int(c == free)) for c in range(k)]
            for col, r in reduced:
                v[col] = -r[free]
            basis.append(v)
    return basis


def tame_degree(points, max_m: int) -> int:
    """Largest m <= max_m such that no subset of <= m distinct points has
    the origin in its open conic hull.

    That is min(max_m, s - 1) for the smallest support s of a sign-uniform
    elementary vector of ker V, or max_m when there is none (see the module
    docstring)."""
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    pts = list(points)
    k = len(pts)
    basis = _kernel(zip(*pts), k)
    d = len(basis)
    if d == 0:
        return max_m
    best = max_m
    for zeros in combinations(range(k), d - 1):
        # the dependencies vanishing on `zeros`, as coefficients of the basis
        coeffs = _kernel([[b[j] for b in basis] for j in zeros], d)
        if len(coeffs) != 1:
            continue
        v = [sum(c * b[i] for c, b in zip(coeffs[0], basis)) for i in range(k)]
        signs = {x > 0 for x in v if x != 0}
        if len(signs) == 1:
            best = min(best, sum(x != 0 for x in v) - 1)
    return best


def sigma_c_for_lamp(instance) -> tuple:
    """The complement character set of the metabelian family: the n
    coordinate characters together with (-deg f_0, ..., -deg f_{n-1}),
    as a tuple of tuples of Fractions (pairwise distinct rays, none zero,
    by construction)."""
    n = instance.n
    pts = []
    for i in range(n):
        pts.append(tuple(Fraction(1) if j == i else Fraction(0) for j in range(n)))
    pts.append(tuple(Fraction(-int(f.degree)) for f in instance.ring.polys))
    return tuple(pts)


def finiteness_report(instance) -> dict:
    """Homological finiteness data derived from the tameness degree.

    The reported FP type equals the tameness degree m (FP_m but not
    FP_{m+1}); finite presentability is equivalent to 2-tameness.  For
    this family (finite exponent, Krull dimension one) the FP_m
    criterion is theorem-backed.
    """
    sigma = sigma_c_for_lamp(instance)
    m = tame_degree(sigma, instance.n + 1)
    return {
        "tame_degree": m,
        "fp_type": m,
        "finitely_presented": m >= 2,
        "basis": "theorem",
        "notes": [
            "FP type from tameness is theorem-backed here: the module of "
            "exponents has finite exponent and Krull dimension one, and "
            "2-tameness is equivalent to finite presentability for "
            "finitely generated metabelian groups",
            "the character set is the family's closed form; generic "
            "Bieri-Strebel invariants are not computed",
        ],
    }
