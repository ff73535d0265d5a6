"""Center quotients of triangular matrix groups over a localized ring.

The group is that of the invertible upper-triangular m x m matrices over
A = F_p[1/x, 1/f_1, ..., 1/f_{n-1}] modulo scalars.  An element is stored
as its normalized representative M: the scalar multiple with every entry
in F_p[x], no f_k dividing all entries, and M[0][0] monic.  Two
representatives differ by a unit c * prod f_k^{w_k}; w_k > 0 would make
f_k divide every entry and w_k < 0 needs it to, and monicity fixes c, so M
is unique, and an element is M itself, a `TriMat` that compares and
hashes by its rows.  The diagonal entries of M are unit monomials
c_j * prod f_k^{e_jk}; their exponent vectors are read off the diagonal
when needed (`_unit_exps`, memoized per instance), never stored.  A
product is one triangular product over F_p[x], trial-divided by f_k only
while every diagonal exponent of f_k is positive; the inverse is the
adjugate det(M) * M^{-1} (`tri_inverse`), normalized the same way.

With M = lambda * N * D, N unitriangular and D diagonal, N[i][j] =
M[i][j] / M[j][j], and M[j][j] is a unit coprime to x-1.  The subgroup H
consists of the elements whose N-entry, equivalently M-entry, at (i, j) is
divisible by (x-1)^(j-i); the endomorphism performs those divisions, which
change neither the diagonal nor the content.  The transversal consists of
the unitriangular matrices with polynomial entries of degree < j-i at
(i, j), of which there are p^l, l = sum_i i(m-i).

Locating the coset of an element never needs the full p^l search:
g * t_j^{-1} = M S, S = t_j^{-1} unitriangular, lies in H exactly when
every M[i][i] S[i][l] + acc, acc = sum_{i<r<=l} M[i][r] S[r][l], vanishes
modulo (x-1)^(l-i), which fixes S[i][l] of degree < l-i (`_residue`) from
the rows of S below row i.  `coset_index` is the reduction below for the
letter t = 1 alone, and `coset_index_exhaustive` stays the oracle.
`entries`, the matrix M / M[0][0] of fractions that `render` prints, is
the one way back to the localized ring.

The decomposition (`letters`, by `_walk`) forms no group product.  For
the letter t, t * M is normalized (t is unitriangular over F_p[x]), and its
row i is M[i] + sum_{k>i} t[i][k] M[k]: it depends on row i of t only.
The reduction of t * M finds row i of S = t_j^{-1} and of the cofactor
t * M * S from that row and the rows r > i of S, so rows r >= i of S and
of the state depend only on rows r >= i of t.  Fix the rows of t below
row i.  Then the sums acc, the residues (`_residue`) and the divisions by
(x-1)^(l-i) are F_p-linear in the coefficients of row i of t, so row i of
S and of the state is a constant plus the digit combination of one basis
row per coefficient: the row computed from M[i], plus the rows computed
from x^e M[k] (k > i, e < k-i).  Working up from the last row, each
configuration of the rows below row i costs 1 + dim reductions, dim the
number of coefficients of row i, instead of one per letter; the letters
then take prefix sums of the basis rows (`_span`).  At m = 2, with
t = [[1, a], [0, 1]], this is the state entry

    (M[0][1] - j_0 M[0][0]) / (x-1) + a (M[1][1] - c_1 M[0][0]) / (x-1),

j_0 and c_1 the values at 1 of M[0][1] / M[0][0] and M[1][1] / M[0][0].
The letter of S is the sum of the codes of its rows (`_letter`), and j
is that of its inverse, read off the identity's walk, where the letter
t_n has S = t_n^{-1} (`_inverse_letters`).  An inexact division means a
wrong residue and raises ContractViolation.  The generic
`Instance.letters` stays the oracle.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import add, sub

from ..engine import ContractViolation, Instance, NotInH, decompose, states_within
from ..matrix import TriMat, sum_of_products, tri_inverse
from ..ring import (
    DensePoly,
    LocalizedRing,
    SFraction,
    canonicalize,
    check_keys,
    validate_config,
)
from . import MAX_WORD_LENGTH, InstanceConfigError


def _span(p: int, const: tuple, basis: list) -> list:
    """const + sum_k d_k * basis_k for every digit vector d over F_p, in
    itertools.product order (first digit slowest), for tuples of
    polynomials added entrywise; each sum extends a shared prefix sum."""
    out = [const]
    for b in basis:
        multiples = [tuple(e.mul_scalar(c) for e in b) for c in range(1, p)]
        out = [w for v in out for w in (v, *(tuple(map(add, v, u)) for u in multiples))]
    return out


def _valuation(e: DensePoly, f: DensePoly, cap: int) -> int:
    """How many times f divides the nonzero e, counting at most cap."""
    for v in range(cap):
        e, r = divmod(e, f)
        if not r.is_zero:
            return v
    return cap


class BorelInstance(Instance):
    family = "borel"

    def __init__(self, p: int, m: int, polys):
        if m < 2:
            raise InstanceConfigError("matrix size m must be >= 2")
        report = validate_config(p, polys)
        if not report.ok:
            raise InstanceConfigError("; ".join(report.problems))
        self.validation = report
        self.p = p
        self.m = m
        self.ring = LocalizedRing(p, polys)
        self.n = len(self.ring.polys)
        self.l_exponent = sum(i * (m - i) for i in range(1, m))
        self._degree = p ** self.l_exponent
        self._identity = TriMat.identity(p, m)
        self._exps: dict = {}

    # -- element construction ---------------------------------------------

    def _unit_exps(self, d: DensePoly) -> tuple:
        """The exponent vector e of the unit monomial d = c * prod f_k^{e_k},
        memoized per instance."""
        out = self._exps.get(d)
        if out is None:
            cap = d.degree
            out = self._exps[d] = tuple(_valuation(d, f, cap // f.degree) for f in self.ring.polys)
        return out

    def _element(self, mat: TriMat) -> TriMat:
        """The element of mat, whose diagonal entries are unit monomials:
        mat divided by each f_k^v dividing every entry, then scaled to make
        the corner monic."""
        rows = mat.rows
        m = self.m
        exps = [self._unit_exps(rows[i][i]) for i in range(m)]
        for k, f in enumerate(self.ring.polys):
            v = min(e[k] for e in exps)
            if not v:
                continue
            for e in (e for i in range(m - 1) for e in rows[i][i + 1 :] if not e.is_zero):
                v = _valuation(e, f, v)
                if not v:
                    break
            if v:
                fv = self.ring._pow(f, v)
                rows = [[divmod(e, fv)[0] for e in row] for row in rows]
        lead = rows[0][0].lead
        if lead != 1:
            c = pow(lead, self.p - 2, self.p)
            rows = [[e.mul_scalar(c) for e in row] for row in rows]
        return mat if rows is mat.rows else TriMat._raw(self.p, rows)

    def from_literal(self, data: dict) -> TriMat:
        """Element N * D from {"n": [[coeffs or {num, den}, ...], ...],
        "d": [{"c": int, "exps": [ints]}, ...]}.  "n" is m rows of m cells,
        [] on and below the diagonal (N is unitriangular); "d" holds the
        diagonal units c * prod f_k^{exps_k}, c nonzero mod p.  Both keys
        are optional; no exponent may exceed MAX_WORD_LENGTH in size."""
        m, n, p, ring = self.m, self.n, self.p, self.ring
        check_keys(data, {"n", "d"}, "a borel literal")
        raw_n = data.get("n", [[[]] * m] * m)
        if not (isinstance(raw_n, list) and len(raw_n) == m and all(
            isinstance(row, list) and len(row) == m and row[:i + 1] == [[]] * (i + 1)
            for i, row in enumerate(raw_n)
        )):
            raise ValueError(f"'n' must be {m} rows of {m} cells, [] on and below the diagonal")
        raw_d = data.get("d", [{}] * m)
        shape = f"'d' must be a list of {m} objects with an integer 'c' and an integer list 'exps'"
        if not isinstance(raw_d, list) or len(raw_d) != m:
            raise ValueError(shape)
        units = []
        for u in raw_d:
            if not isinstance(u, dict):
                raise ValueError(shape)
            check_keys(u, {"c", "exps"}, "a 'd' entry")
            c, exps = u.get("c", 1), u.get("exps", [0] * n)
            if type(c) is not int or not isinstance(exps, list) or any(type(e) is not int for e in exps):
                raise ValueError(shape)
            if c % p == 0:
                raise ValueError(f"a diagonal 'c' must be nonzero mod {p}")
            if len(exps) != n:
                raise ValueError(f"a diagonal 'exps' must have {n} entries")
            units.append((c % p, tuple(exps)))
        cells = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                cells[i][j] = SFraction.from_json(ring, raw_n[i][j])
        if any(abs(e) > MAX_WORD_LENGTH for _, w in units for e in w) or any(
            e > MAX_WORD_LENGTH for row in cells for x in row for e in x.den
        ):
            raise ValueError(f"an exponent in the literal exceeds {MAX_WORD_LENGTH} in size")
        # column j of N * D is column j of N times d_j; scaled by prod
        # f_k^{t_k} every entry is a polynomial, and `_element` strips the rest
        t = [max(x.den[k] for row in cells for x in row) + max(0, *(-w[k] for _, w in units))
             for k in range(n)]
        exps = tuple(tuple(map(add, w, t)) for _, w in units)
        rows = [[x.mul_unit(c, e).num for x, (c, _), e in zip(row, units, exps)] for row in cells]
        return self._element(TriMat(p, rows))

    def share(self, g: TriMat) -> TriMat:
        """g rebuilt from rows and entries out of the value pool."""
        pool = self._value_pool
        rows = []
        for row in g.rows:
            shared = pool.get(row)
            if shared is None:
                shared = tuple([pool.setdefault(e, e) for e in row])
                pool[shared] = shared
            rows.append(shared)
        return TriMat._raw(self.p, rows)

    # -- contract -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    def _superdiag_polys(self, delta: int):
        """All polynomials of degree < delta, zero first, in a fixed order."""
        out = []
        for coeffs in itertools.product(range(self.p), repeat=delta):
            out.append(DensePoly(self.p, coeffs))
        return out

    def _build_transversal(self):
        ident = self._identity.rows
        elems = []
        for tails in itertools.product(*self._row_codes):
            rows = [ident[i][: i + 1] + tail for i, tail in enumerate(tails)]
            elems.append(TriMat._raw(self.p, rows))
        return elems

    def identity(self) -> TriMat:
        return self._identity

    def multiply(self, a: TriMat, b: TriMat) -> TriMat:
        return self._element(a * b)

    def invert(self, a: TriMat) -> TriMat:
        return self._element(tri_inverse(a))

    def _endo_rows(self, g: TriMat):
        """The rows of M with each entry (i, j) divided by (x-1)^(j-i), or
        None at the first division that leaves a remainder (g off H)."""
        pivot_pow = self.ring.pivot_pow
        rows = [list(row) for row in g.rows]
        for i, row in enumerate(rows):
            for j in range(i + 1, self.m):
                if not row[j].is_zero:
                    row[j], r = divmod(row[j], pivot_pow(j - i))
                    if not r.is_zero:
                        return None
        return rows

    def h_member(self, g: TriMat) -> bool:
        return self._endo_rows(g) is not None

    def endo_f(self, g: TriMat) -> TriMat:
        rows = self._endo_rows(g)
        if rows is None:
            raise NotInH("an entry (i, j) is not divisible by (x-1)^(j-i)")
        return TriMat._raw(self.p, rows)

    def coset_index(self, g: TriMat) -> int:
        """The reduction of `_walk` for the letter t = 1 alone."""
        a = g.rows
        ident = self._identity.rows
        s_rows = ident[-1:]
        for i in range(self.m - 2, -1, -1):
            reduced = self._reduce_row(self._row_sums(a, i, i, s_rows), g, i)
            s_rows = (ident[i][: i + 1] + reduced[: self.m - 1 - i],) + s_rows
        return self._inverse_letters[self._letter(s_rows)]

    def _residue(self, acc: DensePoly, g: TriMat, i: int, delta: int) -> DensePoly:
        """The coset formula: the r of degree < delta with acc = M[i][i] * r
        modulo (x-1)^delta, so that acc - M[i][i] * r lies in H's ideal
        and -r is the entry of t^{-1} at (i, i+delta)."""
        modulus = self.ring.pivot_pow(delta)
        res = acc % modulus
        if res.is_zero:
            return res
        d = g.rows[i][i]
        inv = self.ring._den_inverse(self._unit_exps(d), delta).mul_scalar(pow(d.lead, self.p - 2, self.p))
        return res * inv % modulus

    def letters(self, g: TriMat) -> tuple:
        images = [0] * self.degree
        states = [None] * self.degree
        for n, s_rows, state_rows in self._walk(g):
            images[n] = self._inverse_letters[self._letter(s_rows)]
            states[n] = TriMat._raw(self.p, state_rows)
        return images, states

    def _walk(self, g: TriMat) -> list:
        """(n, rows of S, rows of the state) for every letter t_n, by the
        closed form of the module docstring: rows from the bottom up,
        1 + dim reductions for each configuration of the rows below, and
        the rows of S and of the state combined from them per letter."""
        m, p = self.m, self.p
        a = g.rows
        x = self.ring.polys[0]
        ident = self._identity.rows
        # per configuration of the transversal rows below row i: its share
        # of the letter index, and the rows of S and of the state
        configs = [(0, ident[-1:], a[-1:])]
        for i in range(m - 2, -1, -1):
            out = []
            for share, s_rows, state_rows in configs:
                # row i of t * M is M[i] plus t[i][k] * M[k] summed over k > i
                vecs = []
                for k in range(i, m):
                    accs = self._row_sums(a, k, i, s_rows)
                    # M[i] itself, then x^e M[k] for each coefficient e of t[i][k]
                    for e in range(max(k - i, 1)):
                        xe = self.ring._pow(x, e)
                        vecs.append(self._reduce_row([acc * xe for acc in accs], g, i))
                for code, reduced in zip(self._row_codes[i].values(), _span(p, vecs[0], vecs[1:])):
                    out.append((
                        share + code,
                        (ident[i][: i + 1] + reduced[: m - 1 - i],) + s_rows,
                        (a[i][: i + 1] + reduced[m - 1 - i :],) + state_rows,
                    ))
            configs = out
        return configs

    def _row_sums(self, a, k: int, i: int, s_rows) -> list:
        """The sums acc: row k >= i of M times S on the columns l > i, S
        given by its rows below row i."""
        return [
            sum_of_products(self.p, ((a[k][r], s_rows[r - i - 1][l]) for r in range(max(k, i + 1), l + 1)))
            for l in range(i + 1, self.m)
        ]

    def _reduce_row(self, accs, g: TriMat, i: int) -> tuple:
        """For the sums acc over the columns l > i of row i: the entries
        -r of S (r the `_residue` of acc), then the state entries
        (acc - M[i][i] * r) / (x-1)^(l-i), an exact division."""
        d = g.rows[i][i]
        s_part, state_part = [], []
        for delta, acc in enumerate(accs, 1):
            res = self._residue(acc, g, i, delta)
            q, r = divmod(acc - d * res, self.ring.pivot_pow(delta))
            if not r.is_zero:
                raise ContractViolation("cofactor fails subgroup membership")
            s_part.append(-res)
            state_part.append(q)
        return tuple(s_part + state_part)

    @cached_property
    def _row_codes(self) -> list:
        """For each row i, the tails (t[i][i+1], ..., t[i][m-1]) of row i
        over the transversal, in transversal order, mapped to their share
        of the letter index; a letter's index is the sum of the shares of
        its rows."""
        codes, weight = [], 1
        for i in range(self.m - 1, -1, -1):
            tails = list(itertools.product(*(self._superdiag_polys(l - i) for l in range(i + 1, self.m))))
            codes.append({tail: k * weight for k, tail in enumerate(tails)})
            weight *= len(tails)
        return codes[::-1]

    def _letter(self, rows) -> int:
        """The letter n whose t_n has the given rows."""
        try:
            return sum(code[tuple(row[i + 1 :])] for i, (code, row) in enumerate(zip(self._row_codes, rows)))
        except KeyError:
            raise ContractViolation("coset reduction left the transversal") from None

    @cached_property
    def _inverse_letters(self) -> list:
        """The letter j of t_n^{-1}, for each letter n, from the identity's
        walk: there the letter t_n has S = t_n^{-1}."""
        out = [0] * self.degree
        for n, s_rows, _ in self._walk(self._identity):
            out[self._letter(s_rows)] = n
        return out

    def generators(self) -> dict:
        """u1..u_{m-1} (superdiagonal elementary) and xK_S (diagonal f_S at
        slot K, 1-based); xKsS is accepted as an alias."""
        gens = {"e": self._identity}
        m, p = self.m, self.p
        ident = self._identity.rows
        for i in range(1, m):
            rows = [list(row) for row in ident]
            rows[i - 1][i] = DensePoly.one(p)
            gens[f"u{i}"] = TriMat._raw(p, rows)
        for k in range(1, m + 1):
            for sdx in range(self.n):
                rows = [list(row) for row in ident]
                rows[k - 1][k - 1] = self.ring.polys[sdx]
                elem = TriMat._raw(p, rows)
                gens[f"x{k}_{sdx}"] = elem
                gens[f"x{k}s{sdx}"] = elem
        return gens

    def entries(self, g: TriMat) -> list:
        """M / M[0][0] as rows of canonical fractions, the matrix N * D
        scaled so that its first diagonal entry is 1."""
        ring = self.ring
        a = g.rows
        corner = a[0][0]
        e0 = self._unit_exps(corner)
        out = []
        for i in range(self.m):
            row = [ring.zero] * self.m
            # diagonal units from their exponents
            row[i] = ring.one.mul_unit(a[i][i].lead, tuple(map(sub, self._unit_exps(a[i][i]), e0)))
            for j in range(i + 1, self.m):
                e = a[i][j]
                if e.is_zero or not any(e0):
                    row[j] = ring.from_poly(e)
                    continue
                q, r = divmod(e, corner)
                row[j] = ring.from_poly(q) if r.is_zero else canonicalize(ring, e, e0)
            out.append(row)
        return out

    def render(self, g: TriMat) -> str:
        return "[" + ",".join(
            "[" + ",".join(x.render() for x in row) + "]" for row in self.entries(g)
        ) + "]"

    def describe(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "m": self.m,
            "polys": [f.to_json() for f in self.ring.polys],
            "degree": self.degree,
            "l_exponent": self.l_exponent,
        }

    def random_h_element(self, rng) -> TriMat:
        g = self.random_element(rng)
        pivot_pow = self.ring.pivot_pow
        rows = [list(row) for row in g.rows]
        for i, row in enumerate(rows):
            for j in range(i + 1, self.m):
                row[j] = row[j] * pivot_pow(j - i)
        return TriMat._raw(self.p, rows)

    # -- structure checks ----------------------------------------------------

    def claim1_check(self) -> bool:
        """The transversal is closed under inversion, with the inverse
        entries obeying the same degree bounds deg <= j-i-1."""
        one = DensePoly.one(self.p)
        for inv in self.transversal_inverses:
            for i, row in enumerate(inv.rows):
                if row[i] != one:
                    return False
                for j in range(i + 1, self.m):
                    if row[j].degree > j - i - 1:
                        return False
        return True

    def diagonal_generator(self, k: int, sdx: int) -> TriMat:
        if not (1 <= k <= self.m and 0 <= sdx < self.n):
            raise ValueError("generator indices out of range")
        return self.generators()[f"x{k}_{sdx}"]

    def delta_size(self, k: int, sdx: int) -> int:
        deg = int(self.ring.polys[sdx].degree)
        per_entry = self.p ** (deg + 1)
        return per_entry ** (self.m * (self.m - 1) // 2)

    def in_delta(self, g: TriMat, k: int, sdx: int) -> bool:
        """Membership (mod center) in the set of upper-triangular matrices
        with diagonal (1, .., f_s at slot k, .., 1) and polynomial entries
        of degree <= deg f_s.  Such a matrix is normalized (a diagonal one
        leaves no content, and its corner is monic), so M is compared."""
        f = self.ring.polys[sdx]
        one = DensePoly.one(self.p)
        for i, row in enumerate(g.rows):
            if row[i] != (f if i == k - 1 else one):
                return False
            for j in range(i + 1, self.m):
                if row[j].degree > f.degree:
                    return False
        return True

    def claim2_check(self, k: int, sdx: int) -> bool:
        """All iterated states of the diagonal generator at (k, s) close
        inside the bounded-degree set above, the search capped at its size."""
        g, cap = self.diagonal_generator(k, sdx), self.delta_size(k, sdx)
        return states_within(self, g, cap, lambda e: self.in_delta(e, k, sdx))

    def u_states_trivial_check(self) -> bool:
        """The superdiagonal generators have only trivial states."""
        for i in range(1, self.m):
            dec = decompose(self, self.generators()[f"u{i}"])
            if any(s != self._identity for s in dec.states):
                return False
        return True
