"""Center quotients of triangular matrix groups over a localized ring.

An element is stored factored as N * D with N unitriangular over
A = F_p[1/x, 1/f_1, ..., 1/f_{n-1}] and D diagonal with entries in the
unit group F_p^* x <f_0, ..., f_{n-1}>.  Scalar matrices form the center,
so equality is taken modulo scalars; the canonical representative scales
D to make its first entry 1 (N is unchanged by scalar factors).

The distinguished subgroup H consists of the elements whose N-part entry
at (i, j) is divisible by (x-1)^(j-i); the endomorphism performs exactly
those divisions and fixes D.  The transversal consists of the
unitriangular matrices with polynomial entries of degree < j-i at (i, j),
of which there are p^l, l = sum_i i(m-i).

Locating the coset of an element never needs the full p^l search: writing
the required cofactor condition superdiagonal by superdiagonal gives, for
each diagonal distance delta, a congruence modulo (x-1)^delta whose unique
solution of degree < delta is the corresponding entry of t^{-1}.  The
cofactor g * t^{-1} that the decomposition needs is read off the sums of
this reduction, so no second product is formed (`split`).  The exhaustive
search survives as `coset_index_exhaustive`, the test oracle.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ..engine import ContractViolation, Instance, decompose, states_within
from ..matrix import TriMat, sum_of_products, tri_inverse
from ..ring import (
    DensePoly,
    LocalizedRing,
    SFraction,
    Unit,
    divide_exact,
    validate_config,
)
from . import InstanceConfigError


class BorelElem:
    """N * D modulo scalars, canonicalized so the first diagonal unit is 1."""

    __slots__ = ("n_part", "d_part", "_hash")

    def __init__(self, n_part: TriMat, d_part: tuple, _canonical: bool = False):
        if not _canonical:
            raise ValueError("use BorelInstance.make_element")
        self.n_part = n_part
        self.d_part = d_part
        self._hash = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BorelElem)
            and self.n_part == other.n_part
            and self.d_part == other.d_part
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n_part, self.d_part))
        return self._hash

    def __repr__(self) -> str:
        return f"BorelElem({self.n_part.render()}, {[u.render() for u in self.d_part]})"


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
        one = self.ring.unit(1)
        self._unit_ident = (one,) * m
        self._identity = BorelElem(TriMat.identity(self.ring, m), self._unit_ident, _canonical=True)

    # -- element construction ---------------------------------------------

    def make_element(self, n_part: TriMat, d_part) -> BorelElem:
        """Canonicalize an N * D pair modulo the scalar center."""
        d_part = tuple(d_part)
        if len(d_part) != self.m or n_part.size != self.m:
            raise ValueError("size mismatch")
        lead = d_part[0]
        if not lead.is_one:
            scale = lead.inv()
            d_part = tuple(u * scale for u in d_part)
        return BorelElem(n_part, d_part, _canonical=True)

    def matrix_entry(self, g: BorelElem, i: int, j: int) -> SFraction:
        """Entry (i, j) of the representative matrix N * D."""
        return g.n_part.rows[i][j].mul_unit(g.d_part[j])

    def from_literal(self, data: dict) -> BorelElem:
        """Element from {"n": [[coeffs or {num, den}, ...], ...],
        "d": [{"c": int, "exps": [ints]}, ...]}.  "n" is m rows of m cells,
        [] on and below the diagonal (N is unitriangular); both keys are
        optional."""
        m = self.m
        rows = [list(row) for row in TriMat.identity(self.ring, m).rows]
        raw_n = data.get("n", [[[]] * m] * m)
        if not (isinstance(raw_n, list) and len(raw_n) == m and all(
            isinstance(row, list) and len(row) == m and row[:i + 1] == [[]] * (i + 1)
            for i, row in enumerate(raw_n)
        )):
            raise ValueError(f"'n' must be {m} rows of {m} cells, [] on and below the diagonal")
        for i in range(m):
            for j in range(i + 1, m):
                rows[i][j] = SFraction.from_json(self.ring, raw_n[i][j])
        raw_d = data.get("d", [{}] * m)
        shape = f"'d' must be a list of {m} objects with an integer 'c' and an integer list 'exps'"
        if not isinstance(raw_d, list) or len(raw_d) != m:
            raise ValueError(shape)
        units = []
        for u in raw_d:
            if not isinstance(u, dict):
                raise ValueError(shape)
            c, exps = u.get("c", 1), u.get("exps", [0] * self.n)
            if type(c) is not int or not isinstance(exps, list) or any(type(e) is not int for e in exps):
                raise ValueError(shape)
            units.append(Unit(self.ring, c, exps))
        return self.make_element(TriMat(self.ring, rows), units)

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
        m = self.m
        positions = [(i, j) for i in range(m) for j in range(i + 1, m)]
        choices = [self._superdiag_polys(j - i) for (i, j) in positions]
        ident = TriMat.identity(self.ring, m).rows
        elems = []
        for combo in itertools.product(*choices):
            rows = [list(row) for row in ident]
            for (pos, poly) in zip(positions, combo):
                rows[pos[0]][pos[1]] = self.ring.from_poly(poly)
            elems.append(BorelElem(TriMat(self.ring, rows), self._unit_ident, _canonical=True))
        return elems

    def identity(self) -> BorelElem:
        return self._identity

    def multiply(self, a: BorelElem, b: BorelElem) -> BorelElem:
        # (Na Da)(Nb Db) = (Na * (Da Nb Da^{-1})) * (Da Db)
        da = a.d_part
        n_part = a.n_part * self._conj(b.n_part, da, [u.inv() for u in da])
        return self.make_element(n_part, [x * y for x, y in zip(da, b.d_part)])

    def invert(self, a: BorelElem) -> BorelElem:
        # (N D)^{-1} = (D^{-1} N^{-1} D) * D^{-1}
        inv = [u.inv() for u in a.d_part]
        return self.make_element(self._conj(tri_inverse(a.n_part), inv, a.d_part), inv)

    def _conj(self, n: TriMat, d, d_inv) -> TriMat:
        """D N D^{-1} for D = diag(d), d_inv the inverses of d: entry (i, j)
        times d_i d_j^{-1}."""
        if all(u.is_one for u in d):
            return n
        return self._map_upper(n, lambda e, i, j: e.mul_unit(d[i] * d_inv[j]))

    def _map_upper(self, n: TriMat, fn) -> TriMat:
        """n with each nonzero entry e above the diagonal replaced by fn(e, i, j)."""
        rows = [list(row) for row in n.rows]
        for i, row in enumerate(rows):
            for j in range(i + 1, self.m):
                if not row[j].is_zero:
                    row[j] = fn(row[j], i, j)
        return TriMat._raw(self.ring, rows)

    def h_member(self, g: BorelElem) -> bool:
        m = self.m
        for i in range(m):
            for j in range(i + 1, m):
                e = g.n_part.rows[i][j]
                if e.is_zero:
                    continue
                if not (e.num % self.ring.pivot_pow(j - i)).is_zero:
                    return False
        return True

    def endo_f(self, g: BorelElem) -> BorelElem:
        n_part = self._map_upper(g.n_part, lambda e, i, j: divide_exact(e, j - i))
        return self.make_element(n_part, g.d_part)

    def coset_index(self, g: BorelElem) -> int:
        return self.split(g)[0]

    def split(self, g: BorelElem) -> tuple:
        """Superdiagonal-by-superdiagonal reduction.

        g * t^{-1} = N D S = D (A S) D^{-1} * D, with A = D^{-1} N D and S
        the N-part of t^{-1}.  It lies in H exactly when every (A S)[i][l]
        = s[i][l] + acc, acc = sum_{i<r<=l} A[i][r] s[r][l], vanishes
        modulo (x-1)^(l-i): s[i][l] is the residue of -acc, of degree
        < l-i.  S is looked up among the transversal inverses, and the
        cofactor is read off the sums s[i][l] + acc.
        """
        m = self.m
        ring = self.ring
        d = g.d_part
        d_inv = [u.inv() for u in d]
        a = self._conj(g.n_part, d_inv, d).rows
        s = [list(row) for row in self._identity.n_part.rows]
        a_s = [list(row) for row in s]
        for delta in range(1, m):
            for i in range(m - delta):
                l = i + delta
                # s[l][l] = 1 brings in the A[i][l] term
                acc = sum_of_products(ring, ((a[i][r], s[r][l]) for r in range(i + 1, l + 1)))
                poly = -acc.reduce_mod_pivot_pow(delta)
                if not poly.is_zero:
                    s[i][l] = ring.from_poly(poly)
                    acc = acc + s[i][l]
                a_s[i][l] = acc
        idx = self._index_of_inverse_n.get(TriMat._raw(ring, s))
        if idx is None:
            raise ContractViolation("coset reduction left the transversal")
        return idx, BorelElem(self._conj(TriMat._raw(ring, a_s), d, d_inv), d, _canonical=True)

    @cached_property
    def _index_of_inverse_n(self) -> dict:
        """The N-part of each transversal inverse t_j^{-1}, mapped to j."""
        return {t.n_part: j for j, t in enumerate(self.transversal_inverses)}

    def generators(self) -> dict:
        """u1..u_{m-1} (superdiagonal elementary) and xK_S (diagonal f_S at
        slot K, 1-based); xKsS is accepted as an alias."""
        gens = {"e": self._identity}
        m = self.m
        ident = TriMat.identity(self.ring, m).rows
        for i in range(1, m):
            rows = [list(row) for row in ident]
            rows[i - 1][i] = self.ring.one
            gens[f"u{i}"] = BorelElem(
                TriMat(self.ring, rows), self._unit_ident, _canonical=True
            )
        for k in range(1, m + 1):
            for sdx in range(self.n):
                units = list(self._unit_ident)
                units[k - 1] = Unit(
                    self.ring, 1, tuple(1 if t == sdx else 0 for t in range(self.n))
                )
                elem = self.make_element(TriMat.identity(self.ring, m), units)
                gens[f"x{k}_{sdx}"] = elem
                gens[f"x{k}s{sdx}"] = elem
        return gens

    def render(self, g: BorelElem) -> str:
        m = self.m
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                if j < i:
                    row.append("0")
                else:
                    row.append(self.matrix_entry(g, i, j).render())
            rows.append("[" + ",".join(row) + "]")
        return "[" + ",".join(rows) + "]"

    def describe(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "m": self.m,
            "polys": [f.to_json() for f in self.ring.polys],
            "degree": self.degree,
            "l_exponent": self.l_exponent,
        }

    def random_h_element(self, rng, length: int = 5) -> BorelElem:
        g = self.random_element(rng, length)
        pivot = self.ring.pivot_pow
        n_part = self._map_upper(g.n_part, lambda e, i, j: e * self.ring.from_poly(pivot(j - i)))
        return self.make_element(n_part, g.d_part)

    # -- structure checks ----------------------------------------------------

    def claim1_check(self) -> bool:
        """The transversal is closed under inversion, with the inverse
        entries obeying the same degree bounds deg <= j-i-1."""
        for t in self.transversal:
            inv = self.invert(t)
            if any(not u.is_one for u in inv.d_part):
                return False
            for i in range(self.m):
                for j in range(i + 1, self.m):
                    e = inv.n_part.rows[i][j]
                    if e.is_zero:
                        continue
                    if not e.is_poly or e.num.degree > j - i - 1:
                        return False
        return True

    def diagonal_generator(self, k: int, sdx: int) -> BorelElem:
        if not (1 <= k <= self.m and 0 <= sdx < self.n):
            raise ValueError("generator indices out of range")
        return self.generators()[f"x{k}_{sdx}"]

    def delta_size(self, k: int, sdx: int) -> int:
        deg = int(self.ring.polys[sdx].degree)
        per_entry = self.p ** (deg + 1)
        return per_entry ** (self.m * (self.m - 1) // 2)

    def in_delta(self, g: BorelElem, k: int, sdx: int) -> bool:
        """Membership (mod center) in the set of upper-triangular matrices
        with diagonal (1, .., f_s at slot k, .., 1) and polynomial entries
        of degree <= deg f_s."""
        m = self.m
        f_unit = Unit(self.ring, 1, tuple(1 if t == sdx else 0 for t in range(self.n)))
        deg = self.ring.polys[sdx].degree
        others = [g.d_part[j] for j in range(m) if j != k - 1]
        lam = others[0].inv()
        if any(u != others[0] for u in others):
            return False
        if lam * g.d_part[k - 1] != f_unit:
            return False
        for i in range(m):
            for j in range(i + 1, m):
                e = self.matrix_entry(g, i, j).mul_unit(lam)
                if e.is_zero:
                    continue
                if not e.is_poly or e.num.degree > deg:
                    return False
        return True

    def claim2_check(self, k: int, sdx: int, cap: int | None = None) -> bool:
        """All iterated states of the diagonal generator at (k, s) close
        inside the bounded-degree set above."""
        cap = cap if cap is not None else self.delta_size(k, sdx)
        return states_within(
            self, self.diagonal_generator(k, sdx), cap, lambda e: self.in_delta(e, k, sdx)
        )

    def u_states_trivial_check(self) -> bool:
        """The superdiagonal generators have only trivial states."""
        for i in range(1, self.m):
            dec = decompose(self, self.generators()[f"u{i}"])
            if any(s != self._identity for s in dec.states):
                return False
        return True
