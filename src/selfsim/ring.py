"""Exact arithmetic over F_p, F_p[x], and localizations at a fixed basis.

The localized ring inverts a fixed list of monic irreducible polynomials
f_0 = x, f_1, ..., f_{n-1}, so every element has a canonical form

    num / (f_0^{e_0} * f_1^{e_1} * ... * f_{n-1}^{e_{n-1}}),   e_i >= 0,

where f_i does not divide num whenever e_i > 0.  Canonical forms of equal
elements are identical, which makes the values hashable and lets element
sets (visited sets of breadth-first searches) work off plain equality.

Polynomials are dense tuples of integer residues in ascending degree with
no trailing zeros; the zero polynomial is the empty tuple and its degree
is the sentinel -inf.  Multivariate Laurent polynomials are sparse maps
from integer exponent vectors to nonzero residues.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

NEG_INF = float("-inf")


class NotDivisible(ArithmeticError):
    """Exact division was requested but the divisor does not divide."""


class NotInvertible(ArithmeticError):
    """Inverse of a non-unit was requested."""


class DenominatorVanishes(ArithmeticError):
    """A denominator basis polynomial vanishes at the evaluation point."""


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


class DensePoly:
    """A univariate polynomial over F_p, coefficients in ascending degree."""

    __slots__ = ("p", "coeffs", "_hash")

    def __init__(self, p: int, coeffs=()):
        self.p = p
        self.coeffs = _trim([int(c) % p for c in coeffs])
        self._hash = hash((self.p, self.coeffs))

    @staticmethod
    def zero(p: int) -> "DensePoly":
        return DensePoly(p, ())

    @staticmethod
    def one(p: int) -> "DensePoly":
        return DensePoly(p, (1,))

    @staticmethod
    def x(p: int) -> "DensePoly":
        return DensePoly(p, (0, 1))

    @staticmethod
    def constant(p: int, c: int) -> "DensePoly":
        return DensePoly(p, (c,))

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "DensePoly") -> None:
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other: "DensePoly") -> "DensePoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return DensePoly(self.p, out)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a, b, p = self.coeffs, other.coeffs, self.p
        out = [
            ((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
            for i in range(n)
        ]
        return DensePoly(p, out)

    def __neg__(self) -> "DensePoly":
        return DensePoly(self.p, [-c for c in self.coeffs])

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        self._check(other)
        a, b, p = self.coeffs, other.coeffs, self.p
        if not a or not b:
            return DensePoly.zero(p)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return DensePoly(p, out)

    def mul_scalar(self, c: int) -> "DensePoly":
        c %= self.p
        if c == 0:
            return DensePoly.zero(self.p)
        if c == 1:
            return self
        return DensePoly(self.p, [cc * c for cc in self.coeffs])

    def __divmod__(self, other: "DensePoly") -> tuple["DensePoly", "DensePoly"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.p
        r = list(self.coeffs)
        db = len(other.coeffs) - 1
        if len(r) - 1 < db:
            return DensePoly.zero(p), self
        q = [0] * (len(r) - db)
        inv_lead = pow(other.coeffs[-1], p - 2, p)
        bc = other.coeffs
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i] % p
            if c:
                c = c * inv_lead % p
                q[i - db] = c
                base = i - db
                for j in range(db + 1):
                    r[base + j] -= c * bc[j]
        return DensePoly(p, q), DensePoly(p, r[:db])

    def __mod__(self, other: "DensePoly") -> "DensePoly":
        return divmod(self, other)[1]

    def divides(self, other: "DensePoly") -> bool:
        """True when self divides other exactly."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def __pow__(self, k: int) -> "DensePoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = DensePoly.one(self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval(self, c: int) -> int:
        """Evaluate at c, returned as a residue in [0, p)."""
        acc = 0
        for coeff in reversed(self.coeffs):
            acc = (acc * c + coeff) % self.p
        return acc

    def is_irreducible(self) -> bool:
        """Exhaustive trial division by monic polynomials up to degree/2."""
        d = self.degree
        if d is NEG_INF or d == 0:
            return False
        if d == 1:
            return True
        p = self.p
        for e in range(1, int(d) // 2 + 1):
            for tail in itertools.product(range(p), repeat=e):
                trial = DensePoly(p, tail + (1,))
                if trial.divides(self):
                    return False
        return True

    def ext_gcd(self, other: "DensePoly"):
        """Return (g, s, t) with s*self + t*other = g and g monic (or zero)."""
        p = self.p
        r0, r1 = self, other
        s0, s1 = DensePoly.one(p), DensePoly.zero(p)
        t0, t1 = DensePoly.zero(p), DensePoly.one(p)
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if not r0.is_zero and r0.coeffs[-1] != 1:
            c = pow(r0.coeffs[-1], p - 2, p)
            r0, s0, t0 = r0.mul_scalar(c), s0.mul_scalar(c), t0.mul_scalar(c)
        return r0, s0, t0

    def invmod(self, modulus: "DensePoly") -> "DensePoly":
        """Inverse of self modulo the given polynomial."""
        g, s, _ = self.ext_gcd(modulus)
        if g.degree != 0:
            raise NotInvertible(f"{self.render()} is not invertible mod {modulus.render()}")
        return (s % modulus).mul_scalar(pow(g.coeffs[0], self.p - 2, self.p))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DensePoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return self._hash

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                parts.append(xs if c == 1 else f"{c}{xs}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"DensePoly({self.render()} mod {self.p})"


class Unit:
    """An invertible element c * f_0^{w_0} * ... * f_{n-1}^{w_{n-1}} of a
    localized ring, with c a nonzero scalar and integer exponents w."""

    __slots__ = ("ring", "c", "exps", "_hash")

    def __init__(self, ring: "LocalizedRing", c: int, exps):
        c %= ring.p
        if c == 0:
            raise NotInvertible("zero is not a unit")
        self.ring = ring
        self.c = c
        self.exps = tuple(int(e) for e in exps)
        if len(self.exps) != len(ring.polys):
            raise ValueError("exponent vector length mismatch")
        self._hash = hash((self.c, self.exps))

    def __mul__(self, other: "Unit") -> "Unit":
        return Unit(
            self.ring,
            self.c * other.c,
            tuple(a + b for a, b in zip(self.exps, other.exps)),
        )

    def inv(self) -> "Unit":
        return Unit(
            self.ring,
            pow(self.c, self.ring.p - 2, self.ring.p),
            tuple(-e for e in self.exps),
        )

    @property
    def is_one(self) -> bool:
        return self.c == 1 and not any(self.exps)

    def as_fraction(self) -> "SFraction":
        num = DensePoly.constant(self.ring.p, self.c)
        den = [0] * len(self.exps)
        for i, e in enumerate(self.exps):
            if e > 0:
                num = num * self.ring.polys[i] ** e
            elif e < 0:
                den[i] = -e
        return SFraction(self.ring, num, tuple(den), _canonical=True)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Unit)
            and self.c == other.c
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        if self.is_one:
            return "1"
        parts = [] if self.c == 1 else [str(self.c)]
        for f, e in zip(self.ring.polys, self.exps):
            if e:
                base = f.render()
                parts.append(f"({base})" + (f"^{e}" if e != 1 else ""))
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Unit({self.render()})"


class LocalizedRing:
    """F_p[x][1/f_0, ..., 1/f_{n-1}] for a fixed basis of monic irreducible
    polynomials with f_0 = x; fractions carry denominator exponent vectors
    over this basis.  `pivot` is the distinguished dividing polynomial used
    by exact division and membership tests (x - 1 unless overridden)."""

    def __init__(self, p: int, polys, pivot: DensePoly | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.polys = tuple(polys)
        self.n = len(self.polys)
        self.pivot = pivot if pivot is not None else DensePoly(p, (-1, 1))
        self._pivot_pows = {0: DensePoly.one(p), 1: self.pivot}
        self.zero = SFraction(self, DensePoly.zero(p), (0,) * self.n, _canonical=True)
        self.one = SFraction(self, DensePoly.one(p), (0,) * self.n, _canonical=True)

    def pivot_pow(self, k: int) -> DensePoly:
        if k not in self._pivot_pows:
            self._pivot_pows[k] = self.pivot_pow(k - 1) * self.pivot
        return self._pivot_pows[k]

    def from_poly(self, num: DensePoly) -> "SFraction":
        return SFraction(self, num, (0,) * self.n, _canonical=True)

    def from_coeffs(self, coeffs) -> "SFraction":
        return self.from_poly(DensePoly(self.p, coeffs))

    def constant(self, c: int) -> "SFraction":
        return self.from_poly(DensePoly.constant(self.p, c))

    def fraction(self, num: DensePoly, den_exps) -> "SFraction":
        return canonicalize(self, num, den_exps)

    def unit(self, c: int, exps=None) -> Unit:
        return Unit(self, c, exps if exps is not None else (0,) * self.n)

    def unit_one(self) -> Unit:
        return Unit(self, 1, (0,) * self.n)


class SFraction:
    """A canonical fraction num / prod f_i^{e_i} in a localized ring."""

    __slots__ = ("ring", "num", "den", "_hash")

    def __init__(self, ring: LocalizedRing, num: DensePoly, den, _canonical: bool = False):
        if not _canonical:
            raise ValueError("use LocalizedRing.fraction / canonicalize")
        self.ring = ring
        self.num = num
        self.den = tuple(den)
        self._hash = hash((self.num.coeffs, self.den))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_poly(self) -> bool:
        return not any(self.den)

    def _join(self, other: "SFraction"):
        """Common-denominator data: (num1', num2', den) without cancelling."""
        den = tuple(max(a, b) for a, b in zip(self.den, other.den))
        n1, n2 = self.num, other.num
        for i, (d, a, b) in enumerate(zip(den, self.den, other.den)):
            if d > a:
                n1 = n1 * self.ring.polys[i] ** (d - a)
            if d > b:
                n2 = n2 * self.ring.polys[i] ** (d - b)
        return n1, n2, den

    def __add__(self, other: "SFraction") -> "SFraction":
        n1, n2, den = self._join(other)
        return canonicalize(self.ring, n1 + n2, den)

    def __sub__(self, other: "SFraction") -> "SFraction":
        n1, n2, den = self._join(other)
        return canonicalize(self.ring, n1 - n2, den)

    def __neg__(self) -> "SFraction":
        return SFraction(self.ring, -self.num, self.den, _canonical=True)

    def __mul__(self, other: "SFraction") -> "SFraction":
        den = tuple(a + b for a, b in zip(self.den, other.den))
        return canonicalize(self.ring, self.num * other.num, den)

    def mul_unit(self, u: Unit) -> "SFraction":
        """Multiply by a unit c * prod f_i^{w_i}."""
        num = self.num.mul_scalar(u.c)
        if num.is_zero:
            return self.ring.zero
        den = list(self.den)
        dirty = False
        for i, w in enumerate(u.exps):
            if not w:
                continue
            net = den[i] - w
            if net >= 0:
                den[i] = net
                # only a raised exponent (w < 0) can break canonicality
                dirty = dirty or (w < 0 and net > 0)
            else:
                den[i] = 0
                num = num * self.ring.polys[i] ** (-net)
        if dirty:
            # a raised denominator exponent may now cancel into the numerator
            return canonicalize(self.ring, num, den)
        return SFraction(self.ring, num, tuple(den), _canonical=True)

    def inverse_unit(self) -> "SFraction":
        """Inverse, defined only when the value is a unit of the ring."""
        return self.as_unit().inv().as_fraction()

    def as_unit(self) -> Unit:
        """Express the value as c * prod f_i^{w_i}, or raise NotInvertible."""
        if self.is_zero:
            raise NotInvertible("zero is not a unit")
        num = self.num
        w = [-e for e in self.den]
        for i, f in enumerate(self.ring.polys):
            while num.degree >= f.degree:
                q, r = divmod(num, f)
                if r.is_zero:
                    num = q
                    w[i] += 1
                else:
                    break
        if num.degree != 0:
            raise NotInvertible("not a unit of the localized ring")
        return Unit(self.ring, num.coeffs[0], w)

    def reduce_mod_pivot_pow(self, k: int) -> DensePoly:
        """The residue mod pivot^k, as the unique representative of degree < k*deg(pivot)."""
        modulus = self.ring.pivot_pow(k)
        num = self.num % modulus
        den = DensePoly.one(self.ring.p)
        for f, e in zip(self.ring.polys, self.den):
            if e:
                den = den * pow(f % modulus, e) % modulus
        if den.degree == 0 and den.coeffs[0] == 1:
            return num
        return num * den.invmod(modulus) % modulus

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SFraction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_json(ring: LocalizedRing, data) -> "SFraction":
        if isinstance(data, dict):
            return ring.fraction(DensePoly(ring.p, data["num"]), data.get("den", (0,) * ring.n))
        return ring.from_coeffs(data)

    def render(self) -> str:
        num = self.num.render()
        if self.is_poly:
            return num
        parts = []
        for f, e in zip(self.ring.polys, self.den):
            if e:
                parts.append(f"({f.render()})" + (f"^{e}" if e > 1 else ""))
        den = "*".join(parts)
        return f"({num})/{den}" if ("+" in num or len(num) > 1) else f"{num}/{den}"

    def __repr__(self) -> str:
        return f"SFraction({self.render()})"


def canonicalize(ring: LocalizedRing, num: DensePoly, den_exps) -> SFraction:
    """Cancel basis factors so that f_i never divides num while e_i > 0."""
    den = list(den_exps)
    if len(den) != ring.n:
        raise ValueError("denominator exponent vector length mismatch")
    if any(e < 0 for e in den):
        raise ValueError("denominator exponents must be nonnegative")
    if num.is_zero:
        return ring.zero
    for i, f in enumerate(ring.polys):
        while den[i] > 0:
            q, r = divmod(num, f)
            if r.is_zero:
                num = q
                den[i] -= 1
            else:
                break
    return SFraction(ring, num, tuple(den), _canonical=True)


def divide_exact(a: SFraction, k: int, divisor: DensePoly | None = None) -> SFraction:
    """Divide by divisor^k (pivot by default), requiring exactness.

    Raises NotDivisible when the divisor power does not divide the
    numerator; the divisor is assumed coprime to the denominator basis.
    """
    if k < 0:
        raise ValueError("negative exactness exponent")
    if k == 0 or a.is_zero:
        return a
    ring = a.ring
    d = ring.pivot_pow(k) if divisor is None else divisor ** k
    q, r = divmod(a.num, d)
    if not r.is_zero:
        raise NotDivisible("numerator is not divisible by the requested power")
    return SFraction(ring, q, a.den, _canonical=True)


def eval_at_one(a: SFraction) -> int:
    """Ring homomorphism onto F_p sending x to 1, as a residue in [0, p);
    zero exactly on (x-1)-multiples."""
    p = a.ring.p
    acc = a.num.eval(1)
    for f, e in zip(a.ring.polys, a.den):
        if e:
            v = f.eval(1)
            if v == 0:
                raise DenominatorVanishes("denominator basis polynomial vanishes at 1")
            acc = acc * pow(pow(v, p - 2, p), e, p) % p
    return acc


@dataclass
class ValidationReport:
    """Outcome of checking a (p, basis polynomials) configuration."""

    p: int
    problems: list[str] = field(default_factory=list)
    metabelian_flags: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "p": self.p,
            "problems": list(self.problems),
            "metabelian_flags": list(self.metabelian_flags),
            "notes": list(self.notes),
        }


ADMISSIBLE_NOTE = (
    "admissible basis polynomials are interpreted as nonconstant, monic, "
    "irreducible and different from x-1 (equivalently nonvanishing at 1)"
)


def validate_config(p: int, polys, require_one_at_one: bool = False) -> ValidationReport:
    """Check the ring hypotheses for a basis f_0 = x, f_1, ..., f_{n-1}.

    With require_one_at_one the metabelian-family condition f_i(1) = 1
    (i >= 1) is promoted from a flag to a hard problem.
    """
    report = ValidationReport(p=p, notes=[ADMISSIBLE_NOTE])
    if not is_prime(p):
        report.problems.append(f"p = {p} is not prime")
        return report
    polys = list(polys)
    if not polys:
        report.problems.append("empty polynomial basis")
        return report
    x = DensePoly.x(p)
    x_minus_1 = DensePoly(p, (-1, 1))
    if polys[0] != x:
        report.problems.append("first basis polynomial must be x")
    for i, f in enumerate(polys):
        name = f"f_{i} = {f.render()}"
        if not f.is_monic:
            report.problems.append(f"{name} is not monic")
            continue
        if f == x_minus_1:
            report.problems.append(f"{name} equals x-1")
            continue
        if not f.is_irreducible():
            report.problems.append(f"{name} is not irreducible")
        if f.eval(1) == 0:
            report.problems.append(f"{name} vanishes at 1")
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if polys[i] == polys[j]:
                report.problems.append(
                    f"f_{i} and f_{j} coincide ({polys[i].render()})"
                )
    for i, f in enumerate(polys[1:], start=1):
        v = f.eval(1)
        if v != 1:
            msg = f"f_{i}(1) = {v} != 1"
            report.metabelian_flags.append(msg)
            if require_one_at_one:
                report.problems.append(msg + " (required for the metabelian family)")
    return report


# ---------------------------------------------------------------------------
# multivariate layer


class MultiLaurent:
    """A sparse Laurent polynomial over F_p in d variables."""

    __slots__ = ("p", "d", "terms", "_key")

    def __init__(self, p: int, d: int, terms: dict | None = None):
        self.p = p
        self.d = d
        clean = {}
        if terms:
            for exps, c in terms.items():
                c %= p
                if c:
                    t = tuple(int(e) for e in exps)
                    if len(t) != d:
                        raise ValueError("exponent vector length mismatch")
                    clean[t] = c
        self.terms = clean
        self._key = None

    @classmethod
    def _raw(cls, p: int, d: int, terms: dict) -> "MultiLaurent":
        """Internal: terms already reduced mod p with no zero coefficients."""
        out = cls.__new__(cls)
        out.p = p
        out.d = d
        out.terms = terms
        out._key = None
        return out

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    @staticmethod
    def zero(p: int, d: int) -> "MultiLaurent":
        return MultiLaurent(p, d)

    @staticmethod
    def one(p: int, d: int) -> "MultiLaurent":
        return MultiLaurent(p, d, {(0,) * d: 1})

    @staticmethod
    def monomial(p: int, d: int, exps, c: int = 1) -> "MultiLaurent":
        return MultiLaurent(p, d, {tuple(exps): c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "MultiLaurent") -> None:
        if self.p != other.p or self.d != other.d:
            raise ValueError("mixed rings")

    def __add__(self, other: "MultiLaurent") -> "MultiLaurent":
        self._check(other)
        out = dict(self.terms)
        p = self.p
        for e, c in other.terms.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return MultiLaurent._raw(self.p, self.d, out)

    def __sub__(self, other: "MultiLaurent") -> "MultiLaurent":
        return self + (-other)

    def __neg__(self) -> "MultiLaurent":
        p = self.p
        return MultiLaurent._raw(self.p, self.d, {e: p - c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiLaurent") -> "MultiLaurent":
        self._check(other)
        out: dict = {}
        p = self.p
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return MultiLaurent._raw(self.p, self.d, out)

    def mul_scalar(self, c: int) -> "MultiLaurent":
        c %= self.p
        if c == 0:
            return MultiLaurent.zero(self.p, self.d)
        p = self.p
        return MultiLaurent._raw(
            self.p, self.d, {e: v * c % p for e, v in self.terms.items()}
        )

    def mul_monomial(self, exps, c: int = 1) -> "MultiLaurent":
        exps = tuple(exps)
        p = self.p
        if c % p == 1:
            terms = {
                tuple(a + b for a, b in zip(e, exps)): v for e, v in self.terms.items()
            }
        else:
            terms = {
                tuple(a + b for a, b in zip(e, exps)): v * c % p
                for e, v in self.terms.items()
                if v * c % p
            }
        return MultiLaurent._raw(self.p, self.d, terms)

    def mul_univariate(self, g: DensePoly, axis: int) -> "MultiLaurent":
        """Multiply by g(x_axis)."""
        out: dict = {}
        p = self.p
        for e, c in self.terms.items():
            for j, gc in enumerate(g.coeffs):
                if gc:
                    e2 = e[:axis] + (e[axis] + j,) + e[axis + 1 :]
                    v = (out.get(e2, 0) + c * gc) % p
                    if v:
                        out[e2] = v
                    elif e2 in out:
                        del out[e2]
        return MultiLaurent._raw(self.p, self.d, out)

    def divexact_univariate(self, g: DensePoly, axis: int):
        """Divide exactly by g(x_axis) inside the Laurent ring, or None.

        Denominator powers of x_axis in g are units here, so the division
        first strips the trailing-zero part of g and the minimal x_axis
        exponent of self, then runs univariate long division with Laurent
        coefficients in the remaining variables.
        """
        if self.is_zero:
            return self
        if g.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        v = 0
        while g.coeffs[v] == 0:
            v += 1
        gt = g.coeffs[v:]
        dg = len(gt) - 1
        p = self.p
        lo = hi = None
        for e in self.terms:
            a = e[axis]
            if lo is None or a < lo:
                lo = a
            if hi is None or a > hi:
                hi = a
        if hi - lo < dg:
            # the x_axis-degree span of any multiple is at least that of g
            return None
        m = lo
        rows: dict[int, dict] = {}
        for e, c in self.terms.items():
            rest = e[:axis] + e[axis + 1 :]
            rows.setdefault(e[axis] - m, {})[rest] = c
        top = max(rows)
        inv_lead = pow(gt[-1], p - 2, p)
        quot: dict[int, dict] = {}
        for k in range(top, dg - 1, -1):
            coef = rows.get(k)
            if not coef:
                continue
            kq = k - dg
            qk = {rest: c * inv_lead % p for rest, c in coef.items()}
            quot[kq] = qk
            for j, gc in enumerate(gt):
                if not gc:
                    continue
                row = rows.setdefault(kq + j, {})
                for rest, c in qk.items():
                    vnew = (row.get(rest, 0) - c * gc) % p
                    if vnew:
                        row[rest] = vnew
                    elif rest in row:
                        del row[rest]
        if any(rows.get(k) for k in rows):
            return None
        out: dict = {}
        shift = m - v
        for kq, qk in quot.items():
            for rest, c in qk.items():
                e = rest[:axis] + (kq + shift,) + rest[axis:]
                out[e] = c
        return MultiLaurent._raw(p, self.d, out)

    def aug(self) -> int:
        """Evaluation at all-ones (the augmentation), as a residue."""
        return sum(self.terms.values()) % self.p

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiLaurent)
            and self.p == other.p
            and self.d == other.d
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.p, self.d, self.key))

    def render(self, names: list[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        names = names or [f"x{i+1}" for i in range(self.d)]
        parts = []
        for e, c in self.key:
            factors = [
                f"{names[i]}" + (f"^{k}" if k != 1 else "")
                for i, k in enumerate(e)
                if k
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"MultiLaurent({self.render()})"


class MultiLocalizedRing:
    """Laurent polynomials in d variables with the powers of one polynomial
    g inverted separately in each variable: denominators prod g(x_i)^{z_i}."""

    def __init__(self, p: int, d: int, g: DensePoly):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if g.is_zero:
            raise ValueError("localizing polynomial must be nonzero")
        self.p = p
        self.d = d
        self.g = g
        self.g_at_one = g.eval(1)
        self.zero = MultiSFraction(self, MultiLaurent.zero(p, d), (0,) * d, _canonical=True)
        self.one = MultiSFraction(self, MultiLaurent.one(p, d), (0,) * d, _canonical=True)
        self._gpows = {0: DensePoly.one(p), 1: g}

    def g_pow(self, k: int) -> DensePoly:
        if k not in self._gpows:
            self._gpows[k] = self.g_pow(k - 1) * self.g
        return self._gpows[k]

    def fraction(self, num: MultiLaurent, den_exps) -> "MultiSFraction":
        den = list(den_exps)
        if len(den) != self.d:
            raise ValueError("denominator exponent vector length mismatch")
        if any(z < 0 for z in den):
            raise ValueError("denominator exponents must be nonnegative")
        if num.is_zero:
            return self.zero
        for i in range(self.d):
            while den[i] > 0:
                q = num.divexact_univariate(self.g, i)
                if q is None:
                    break
                num = q
                den[i] -= 1
        return MultiSFraction(self, num, tuple(den), _canonical=True)

    def from_laurent(self, num: MultiLaurent) -> "MultiSFraction":
        return MultiSFraction(self, num, (0,) * self.d, _canonical=True)


class MultiSFraction:
    """num / prod g(x_i)^{z_i} in canonical form (g(x_i) never divides num
    while z_i > 0)."""

    __slots__ = ("ring", "num", "den", "_hash")

    def __init__(self, ring: MultiLocalizedRing, num: MultiLaurent, den, _canonical=False):
        if not _canonical:
            raise ValueError("use MultiLocalizedRing.fraction")
        self.ring = ring
        self.num = num
        self.den = tuple(den)
        self._hash = hash((self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _join(self, other: "MultiSFraction"):
        den = tuple(max(a, b) for a, b in zip(self.den, other.den))
        n1, n2 = self.num, other.num
        for i, (d, a, b) in enumerate(zip(den, self.den, other.den)):
            if d > a:
                n1 = n1.mul_univariate(self.ring.g_pow(d - a), i)
            if d > b:
                n2 = n2.mul_univariate(self.ring.g_pow(d - b), i)
        return n1, n2, den

    def __add__(self, other: "MultiSFraction") -> "MultiSFraction":
        n1, n2, den = self._join(other)
        return self.ring.fraction(n1 + n2, den)

    def __sub__(self, other: "MultiSFraction") -> "MultiSFraction":
        n1, n2, den = self._join(other)
        return self.ring.fraction(n1 - n2, den)

    def __neg__(self) -> "MultiSFraction":
        return MultiSFraction(self.ring, -self.num, self.den, _canonical=True)

    def __mul__(self, other: "MultiSFraction") -> "MultiSFraction":
        den = tuple(a + b for a, b in zip(self.den, other.den))
        return self.ring.fraction(self.num * other.num, den)

    def mul_monomial(self, exps, c: int = 1) -> "MultiSFraction":
        return MultiSFraction(
            self.ring, self.num.mul_monomial(exps, c), self.den, _canonical=True
        )

    def mul_g_power(self, axis: int, k: int) -> "MultiSFraction":
        """Multiply by g(x_axis)^k for any integer k."""
        if k == 0 or self.is_zero:
            return self
        if k > 0:
            num = self.num
            den = list(self.den)
            take = min(k, den[axis])
            den[axis] -= take
            k -= take
            if k:
                num = num.mul_univariate(self.ring.g_pow(k), axis)
            return self.ring.fraction(num, den)
        den = list(self.den)
        den[axis] += -k
        return self.ring.fraction(self.num, den)

    def eval_at_ones(self) -> int:
        """Evaluation at all-ones; zero exactly on the augmentation kernel."""
        p = self.ring.p
        if self.ring.g_at_one == 0:
            raise DenominatorVanishes("localizing polynomial vanishes at 1")
        acc = self.num.aug()
        inv = pow(self.ring.g_at_one, p - 2, p)
        for z in self.den:
            acc = acc * pow(inv, z, p) % p
        return acc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiSFraction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return self._hash

    def render(self, names: list[str] | None = None) -> str:
        names = names or [f"x{i+1}" for i in range(self.ring.d)]
        num = self.num.render(names)
        if not any(self.den):
            return num
        parts = []
        for i, z in enumerate(self.den):
            if z:
                parts.append(f"g({names[i]})" + (f"^{z}" if z > 1 else ""))
        return f"({num})/" + "*".join(parts)

    def __repr__(self) -> str:
        return f"MultiSFraction({self.render()})"
