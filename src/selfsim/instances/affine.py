"""Polynomial affine groups V ⋊ B over F_p[x].

Elements are pairs (v, b) of a polynomial column and an invertible
polynomial matrix whose entries above the diagonal are divisible by x-1,
with the product (v1, b1)(v2, b2) = (v1 + b1 v2, b1 b2).  The subgroup H
keeps the first coordinate of v divisible by x-1; its transversal is
(alpha e_1, I) for alpha in F_p, so the tree degree is p.  The
endomorphism applies the
companion-style shift A to the vector and conjugates the matrix by A,
both exactly (see matrix.apply_A / matrix.conj_by_A).

The coset of (v, b) is alpha = v_1(1) * b_{1,1}(1)^{-1}; b_{1,1}(1) is a
nonzero scalar because b reduces to a lower-triangular invertible matrix
modulo x-1.  The exhaustive search remains available as the oracle.

Every element decomposes in closed form (`letters`), with no group
product.  The letter t_alpha = (alpha e_1, I) gives t_alpha g =
(v + alpha e_1, b), in the coset j = (alpha + v_1(1)) * b_{1,1}(1)^{-1},
and the cofactor t_alpha g t_j^{-1} = (v + alpha e_1 - j b_0, b), b_0 the
first column of b.  Its state is

    (apply_A(v + alpha e_1 - j b_0), conj_by_A(b)),

so one conj_by_A(b) serves all p letters.  The generic `Instance.letters`
stays the oracle.

For n = 2 the group is still state-closed of degree p but is not finitely
generated; construction permits it, and `describe` carries a note saying
so.
"""

from __future__ import annotations

from collections import namedtuple

from ..engine import ContractViolation, Instance, NotInH, states_within
from ..matrix import PolyMat, apply_A, conj_by_A, rho
from ..ring import DensePoly, NotDivisible, check_keys, is_prime
from . import InstanceConfigError


class AffineElem(namedtuple("AffineElem", "v b")):
    """(vector, matrix) with the matrix in the affine Borel subgroup."""

    __slots__ = ()

    def __new__(cls, v, b: PolyMat):
        return tuple.__new__(cls, (tuple(v), b))


class AffineInstance(Instance):
    family = "affine"

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise InstanceConfigError(f"{p} is not prime")
        if n < 2:
            raise InstanceConfigError("dimension n must be >= 2")
        self.p = p
        self.n = n
        self.pivot = DensePoly(p, (-1, 1))
        self._zero_vec = (DensePoly.zero(p),) * n
        self._identity = AffineElem(self._zero_vec, PolyMat.identity(p, n))

    # -- element construction -----------------------------------------------

    def make_element(self, v, b: PolyMat) -> AffineElem:
        v, n, rows = tuple(v), self.n, b.rows
        if len(v) != n or b.size != n:
            raise ValueError(f"an affine element has {n} vector entries and {n} x {n} matrix entries")
        if any(rows[i][j].eval(1) for i in range(n) for j in range(i + 1, n)):
            raise InstanceConfigError("entry above the diagonal is not divisible by x-1")
        # b(1) is now lower triangular, so det(b)(1) is the product of the
        # b_ii(1): a zero among them refuses b before its determinant
        if not all(rows[i][i].eval(1) for i in range(n)) or b.det().degree != 0:
            raise InstanceConfigError("matrix is not invertible over F_p[x]")
        return AffineElem(v, b)

    def from_literal(self, data: dict) -> AffineElem:
        """Element from {"v": [[coeffs], ...], "b": [[[coeffs], ...], ...]}."""
        check_keys(data, {"v", "b"}, "an affine literal")
        raw_v, raw_b = data.get("v", [[]] * self.n), data.get("b")
        if not isinstance(raw_v, list):
            raise ValueError("'v' must be a list of coefficient lists")
        if "b" in data and not (isinstance(raw_b, list) and all(isinstance(row, list) for row in raw_b)):
            raise ValueError("'b' must be a list of rows of coefficient lists")
        v = [DensePoly.from_json(self.p, c) for c in raw_v]
        b = PolyMat.identity(self.p, self.n) if raw_b is None else PolyMat.from_json(self.p, raw_b)
        return self.make_element(v, b)

    def share(self, g: AffineElem) -> AffineElem:
        """g rebuilt from the value pool: its vector entries, and its
        matrix, whose entries are pooled when it is new to the pool."""
        pool = self._value_pool
        b = pool.get(g.b)
        if b is None:
            b = PolyMat._raw(self.p, [[pool.setdefault(e, e) for e in row] for row in g.b.rows])
            pool[b] = b
        return AffineElem._make((tuple([pool.setdefault(e, e) for e in g.v]), b))

    # -- contract --------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.p

    def _build_transversal(self):
        ident = PolyMat.identity(self.p, self.n)
        out = []
        for alpha in range(self.p):
            v = (DensePoly.constant(self.p, alpha),) + (DensePoly.zero(self.p),) * (
                self.n - 1
            )
            out.append(AffineElem(v, ident))
        return out

    def identity(self) -> AffineElem:
        return self._identity

    def multiply(self, a: AffineElem, b: AffineElem) -> AffineElem:
        bv = a.b.apply(b.v)
        v = tuple(x + y for x, y in zip(a.v, bv))
        return AffineElem(v, a.b * b.b)

    def invert(self, a: AffineElem) -> AffineElem:
        binv = a.b.inverse_gl()
        v = tuple(-e for e in binv.apply(a.v))
        return AffineElem(v, binv)

    def h_member(self, g: AffineElem) -> bool:
        return g.v[0].eval(1) == 0

    def endo_f(self, g: AffineElem) -> AffineElem:
        if not self.h_member(g):
            raise NotInH("first coordinate is not divisible by x-1")
        return AffineElem(apply_A(g.v), conj_by_A(g.b))

    def coset_index(self, g: AffineElem) -> int:
        return self._index(g.v[0].eval(1), g.b.rows[0][0].eval(1))

    def _index(self, v1: int, b11: int) -> int:
        """The coset alpha = v_1(1) * b_{1,1}(1)^{-1} of an element, from
        the values v1 = v_1(1) and b11 = b_{1,1}(1)."""
        p = self.p
        return v1 * pow(b11, p - 2, p) % p

    def letters(self, g: AffineElem) -> tuple:
        """The closed form of the module docstring: one conj_by_A(b) for
        all letters, and per letter one column combination and apply_A,
        whose inexact division means a wrong coset."""
        p = self.p
        v, b = g.v, g.b
        col = [row[0] for row in b.rows]
        v1, b11 = v[0].eval(1), col[0].eval(1)
        conj = conj_by_A(b)
        images, states = [], []
        for alpha in range(p):
            j = self._index(alpha + v1, b11)
            # the cofactor's vector v + alpha e_1 - j b_0
            w = [e - c.mul_scalar(j) for e, c in zip(v, col)]
            w[0] = w[0] + DensePoly.constant(p, alpha)
            try:
                w = apply_A(w)
            except NotDivisible:
                raise ContractViolation(f"cofactor at letter {alpha} fails subgroup membership") from None
            images.append(j)
            states.append(AffineElem(w, conj))
        return images, states

    def generators(self) -> dict:
        """Translations t1..tn along e_i plus a finite matrix sample:
        aIJ = I + (x-1) E_{I,J} above the diagonal, bIJ = I + E_{I,J}
        below it, and dC = diag(C, 1, ..., 1)."""
        p, n = self.p, self.n
        gens = {"e": self._identity}
        ident = PolyMat.identity(p, n)
        for i in range(n):
            v = tuple(
                DensePoly.one(p) if k == i else DensePoly.zero(p) for k in range(n)
            )
            gens[f"t{i+1}"] = AffineElem(v, ident)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                rows = [list(r) for r in ident.rows]
                rows[i][j] = self.pivot if i < j else DensePoly.one(p)
                name = f"a{i+1}{j+1}" if i < j else f"b{i+1}{j+1}"
                gens[name] = AffineElem(self._zero_vec, PolyMat(p, rows))
        for c in range(2, p):
            rows = [list(r) for r in ident.rows]
            rows[0][0] = DensePoly.constant(p, c)
            gens[f"d{c}"] = AffineElem(self._zero_vec, PolyMat(p, rows))
        return gens

    def render(self, g: AffineElem) -> str:
        v = "[" + ",".join(e.render() for e in g.v) + "]"
        return f"v={v};b={g.b.render()}"

    def describe(self) -> dict:
        out = {"family": self.family, "p": self.p, "n": self.n, "degree": self.degree}
        if self.n == 2:
            out["note"] = (
                "n = 2 gives a state-closed degree-p action of a group "
                "that is not finitely generated"
            )
        return out

    def random_h_element(self, rng) -> AffineElem:
        g = self.random_element(rng)
        v = (g.v[0] * self.pivot,) + g.v[1:]
        return AffineElem(v, g.b)

    # -- bounded-degree state sets ------------------------------------------------

    def in_delta(self, g: AffineElem, k: int) -> bool:
        """rho(v) <= k and rho(A^j b A^{-j}) <= k for 0 <= j < n."""
        if rho(g.v) > k:
            return False
        b = g.b
        for _ in range(self.n):
            if rho(b) > k:
                return False
            b = conj_by_A(b)
        return True

    def delta_sample(self, k: int = 1) -> list:
        """A deterministic sample of elements inside the degree-k set."""
        sample = [g for name, g in self.generators().items() if self.in_delta(g, k)]
        extra = []
        for a in sample:
            for b in sample:
                c = self.multiply(a, b)
                if self.in_delta(c, k):
                    extra.append(c)
        seen = set()
        out = []
        for g in sample + extra:
            if g not in seen:
                seen.add(g)
                out.append(g)
        return out

    def delta_closure_check(self, elems, k: int) -> bool:
        """All iterated states of the given degree-k elements stay degree-k (cap 4096)."""
        return all(states_within(self, g, 4096, lambda e: self.in_delta(e, k)) for g in elems)

