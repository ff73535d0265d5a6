"""Exact arithmetic over F_p, F_p[x], and localizations at a fixed basis.

Both localized rings are S^{-1}R for S generated by a basis b_0, ...,
b_{n-1} of pairwise coprime elements of R: `LocalizedRing` inverts monic
irreducible polynomials f_0 = x, f_1, ..., f_{n-1} of F_p[x], and
`MultiLocalizedRing` inverts g(x_1), ..., g(x_d) in the Laurent ring
F_p[x_1^{+-1}, ..., x_d^{+-1}], or nothing (n = 0) when g is None.  Every
element has a canonical form

    num / (b_0^{e_0} * b_1^{e_1} * ... * b_{n-1}^{e_{n-1}}),   e_i >= 0,

where b_i does not divide num whenever e_i > 0.  Canonical forms of equal
elements are identical, which makes the values hashable and lets element
sets (visited sets of breadth-first searches) work off plain equality.
A unit of `LocalizedRing` is c * prod f_i^{w_i} with integer w_i; it is
passed as the pair (c, w) (`SFraction.mul_unit`), never stored.  The
Borel family keeps its matrices over F_p[x] itself, scaled by such a unit
to its normalized representative (see `instances.borel`), and comes back
to fractions only to print entries and, through `_den_inverse`, to invert
its diagonal entries modulo powers of the pivot x - 1.

One core (`_Localization`, `_LocalFraction`) does the arithmetic of both
rings; each supplies only how to multiply a numerator by b_i^k and how to
divide it by b_i exactly.  As the b_i are pairwise coprime and operands
canonical, only these axes are trial-divided: in a sum, those with equal
exponents (where they differ, b_i divides exactly one scaled numerator);
in a product by prod b_i^{w_i}, those raised from 0; in a sum a + b * unit
(`MultiSFraction.add_mul`), the union of both rules; in a product of two
fractions, all (g need not be irreducible).  `canonicalize`, the validated
public entry, trial-divides every axis and is the tests' oracle.

Polynomials are dense tuples of integer residues in ascending degree with
no trailing zeros; the zero polynomial is the empty tuple and its degree
is the sentinel -inf.  Multivariate Laurent polynomials are sparse maps
from integer exponent vectors to nonzero residues.

Trusted construction: the public `DensePoly(p, coeffs)` and
`MultiLaurent(p, d, terms)` reduce and validate whatever they are given;
ring arithmetic never re-validates its own values.  A result that is
reduced and trimmed by construction (a negation, a multiple by a nonzero
scalar, a quotient) goes straight to `_raw`; the others (sums, products,
remainders) pass through the one reduce-and-trim helper `_canon` first.

All values are immutable after construction and safe to share; hashes are
computed on first use.  Exponent vectors are shared too: `vec(t)` returns
the one pooled tuple equal to t, and a fraction's denominator vector is
stored through it, so the few distinct vectors of a long run are not
copied into every memoized value.  A `MultiLaurent` hashes the frozenset
of its terms, so it keeps no sorted copy of them; `key` and `render` sort
on demand.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import add

NEG_INF = float("-inf")


_VECS: dict = {}


def vec(t: tuple) -> tuple:
    """The pooled tuple equal to the tuple t, one object per value."""
    return _VECS.setdefault(t, t)


class NotDivisible(ArithmeticError):
    """Exact division was requested but the divisor does not divide."""


class NotInvertible(ArithmeticError):
    """Inverse of a non-unit was requested."""


def check_keys(data: dict, allowed, what: str, error=ValueError) -> None:
    """Raise `error` when the JSON object data has a key outside allowed,
    so that no key is silently ignored."""
    extra = sorted(map(str, data.keys() - allowed))
    if extra:
        raise error(f"{what} takes no key {extra[0]!r}")


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


def _canon(p: int, coeffs) -> tuple[int, ...]:
    """Integer coefficients reduced mod p, trailing zeros trimmed."""
    out = [c % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class DensePoly:
    """A univariate polynomial over F_p, coefficients in ascending degree."""

    __slots__ = ("p", "coeffs", "_hash")

    def __init__(self, p: int, coeffs=()):
        self.p = p
        self.coeffs = _canon(p, [int(c) for c in coeffs])
        self._hash = None

    @classmethod
    def _raw(cls, p: int, coeffs: tuple) -> "DensePoly":
        """Internal: coeffs already reduced mod p with no trailing zeros."""
        out = cls.__new__(cls)
        out.p = p
        out.coeffs = coeffs
        out._hash = None
        return out

    @staticmethod
    def from_json(p: int, data) -> "DensePoly":
        """A polynomial from a list of JSON integers (booleans rejected)."""
        if not isinstance(data, list) or any(type(c) is not int for c in data):
            raise ValueError("coefficients must be a list of integers")
        return DensePoly(p, data)

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
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return DensePoly._raw(self.p, _canon(self.p, [a + b for a, b in pairs]))

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        self._check(other)
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return DensePoly._raw(self.p, _canon(self.p, [a - b for a, b in pairs]))

    def __neg__(self) -> "DensePoly":
        p = self.p
        return DensePoly._raw(p, tuple([-c % p for c in self.coeffs]))

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        self._check(other)
        a, b, p = self.coeffs, other.coeffs, self.p
        if not a or not b:
            return DensePoly.zero(p)
        # a factor one is common: most diagonal entries of triangular matrices
        if a == (1,):
            return other
        if b == (1,):
            return self
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return DensePoly._raw(p, _canon(p, out))

    def mul_scalar(self, c: int) -> "DensePoly":
        p = self.p
        c %= p
        if c == 0:
            return DensePoly.zero(p)
        if c == 1:
            return self
        return DensePoly._raw(p, tuple([cc * c % p for cc in self.coeffs]))

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
        # the top quotient coefficient is the dividend's lead over the
        # divisor's, hence nonzero
        return DensePoly._raw(p, tuple(q)), DensePoly._raw(p, _canon(p, r[:db]))

    def __mod__(self, other: "DensePoly") -> "DensePoly":
        return divmod(self, other)[1]

    def divides(self, other: "DensePoly") -> bool:
        """True when self divides other exactly."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def __pow__(self, k: int, modulus: "DensePoly | None" = None) -> "DensePoly":
        """self^k by square-and-multiply, reduced mod modulus when given."""
        if k < 0:
            raise ValueError("negative polynomial power")
        out, base = DensePoly.one(self.p), self
        if modulus is not None:
            out, base = out % modulus, base % modulus
        while k:
            if k & 1:
                out = out * base if modulus is None else out * base % modulus
            base = base * base if modulus is None else base * base % modulus
            k >>= 1
        return out

    def eval(self, c: int) -> int:
        """Evaluate at c, returned as a residue in [0, p)."""
        acc = 0
        for coeff in reversed(self.coeffs):
            acc = (acc * c + coeff) % self.p
        return acc

    def is_irreducible(self) -> bool:
        """Ben-Or's test: f of degree d is irreducible exactly when
        gcd(x^(p^i) - x, f) = 1 for every 1 <= i <= d/2."""
        d = self.degree
        if d is NEG_INF or d == 0:
            return False
        x = DensePoly.x(self.p)
        h = x
        for _ in range(int(d) // 2):
            h = pow(h, self.p, self)
            if (h - x).ext_gcd(self)[0].degree != 0:
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
        if self._hash is None:
            self._hash = hash((self.p, self.coeffs))
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


# ---------------------------------------------------------------------------
# the shared localization core


class _LocalFraction:
    """A canonical fraction num / prod b_i^{e_i}: b_i never divides num
    while e_i > 0, so equal values have equal num, den and hash."""

    __slots__ = ("ring", "num", "den", "_hash")

    def __init__(self, ring: "_Localization", num, den, _canonical: bool = False):
        if not _canonical:
            raise ValueError("use the ring's fraction() or canonicalize()")
        self.ring = ring
        self.num = num
        self.den = vec(tuple(den))
        self._hash = None

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _join(self, num, den, w=None):
        """self.num and num * prod b_i^{w_i} (num / den canonical, w zero by
        default) over their common denominator, that denominator, and the
        axes where b_i may divide the sum of the numerators: neither side
        is scaled there, or the second was raised from denominator 0."""
        scale = self.ring._scale
        n1 = self.num
        out, axes = [], []
        for i, a in enumerate(self.den):
            b = den[i]
            t = b - w[i] if w else b
            e = a if a > t else t
            if e < 0:
                e = 0
            if a < e:
                n1 = scale(n1, i, e - a)
            if t < e:
                num = scale(num, i, e - t)
            if e and (a == t or (a < t and not b)):
                axes.append(i)
            out.append(e)
        return n1, num, out, axes

    def __add__(self, other):
        n1, n2, den, axes = self._join(other.num, other.den)
        return self.ring._cancel(n1 + n2, den, axes)

    def __sub__(self, other):
        n1, n2, den, axes = self._join(other.num, other.den)
        return self.ring._cancel(n1 - n2, den, axes)

    def __neg__(self):
        return self.__class__(self.ring, -self.num, self.den, _canonical=True)

    def __mul__(self, other):
        den = [a + b for a, b in zip(self.den, other.den)]
        return self.ring._cancel(self.num * other.num, den, range(len(den)))

    def _mul_basis(self, num, exps):
        """num / den * prod b_i^{w_i}, where num is self.num times a unit of
        R (a nonzero scalar, or a monomial in the Laurent ring).  Only an
        exponent raised from 0 lets b_i divide num."""
        ring = self.ring
        den = list(self.den)
        raised = []
        for i, w in enumerate(exps):
            if not w:
                continue
            e = den[i] - w
            if e < 0:
                num = ring._scale(num, i, -e)
                e = 0
            elif not den[i]:
                raised.append(i)
            den[i] = e
        return ring._cancel(num, den, raised)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            other.__class__ is self.__class__
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash


class _Localization:
    """S^{-1}R for S generated by a basis b_0, ..., b_{n-1} of pairwise
    coprime elements of R.  A subclass supplies the fraction type and how to
    multiply a numerator by b_i^k (`_scale`) or divide it by b_i exactly
    (`_divide`, None when b_i does not divide)."""

    fraction_type: type

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.n = n
        self._pows: dict = {}

    def _pow(self, f: DensePoly, k: int) -> DensePoly:
        """f^k for a basis polynomial, the pivot or g, memoized per ring."""
        key = (f, k)
        out = self._pows.get(key)
        if out is None:
            out = self._pows[key] = f ** k
        return out

    def fraction(self, num, den_exps):
        return canonicalize(self, num, den_exps)

    def _cancel(self, num, den: list, axes):
        """The fraction num / prod b_i^{den[i]}, canonical if b_i can divide
        num only on the given axes; den is consumed."""
        if num.is_zero:
            return self.zero
        divide = self._divide
        for i in axes:
            while den[i] > 0:
                q = divide(num, i)
                if q is None:
                    break
                num = q
                den[i] -= 1
        return self.fraction_type(self, num, den, _canonical=True)


def canonicalize(ring: _Localization, num, den_exps) -> _LocalFraction:
    """Cancel basis factors so that b_i never divides num while e_i > 0."""
    den = list(den_exps)
    if len(den) != ring.n:
        raise ValueError("denominator exponent vector length mismatch")
    if any(e < 0 for e in den):
        raise ValueError("denominator exponents must be nonnegative")
    return ring._cancel(num, den, range(ring.n))


# ---------------------------------------------------------------------------
# F_p[x] localized at f_0 = x, f_1, ..., f_{n-1}


class SFraction(_LocalFraction):
    """A canonical fraction num / prod f_i^{e_i} in a localized ring."""

    __slots__ = ()

    @property
    def is_poly(self) -> bool:
        return not any(self.den)

    def mul_unit(self, c: int, exps) -> "SFraction":
        """Multiply by the unit c * prod f_i^{w_i}, c a nonzero residue and
        exps the integer exponents w."""
        if c == 1 and not any(exps):
            return self
        return self._mul_basis(self.num.mul_scalar(c), exps)

    def reduce_mod_pivot_pow(self, k: int) -> DensePoly:
        """The residue mod pivot^k, as the unique representative of degree < k*deg(pivot)."""
        modulus = self.ring.pivot_pow(k)
        num = self.num % modulus
        inv = self.ring._den_inverse(self.den, k)
        return num if inv.coeffs == (1,) else num * inv % modulus

    @staticmethod
    def from_json(ring: LocalizedRing, data) -> "SFraction":
        """From a coefficient list or {"num": [...], "den": [...]}, JSON
        integers only."""
        if not isinstance(data, dict):
            return ring.from_poly(DensePoly.from_json(ring.p, data))
        check_keys(data, {"num", "den"}, "a fraction")
        den = data.get("den", [0] * ring.n)
        if not isinstance(den, list) or any(type(e) is not int for e in den):
            raise ValueError("'den' must be a list of integers")
        return ring.fraction(DensePoly.from_json(ring.p, data["num"]), den)

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


class LocalizedRing(_Localization):
    """F_p[x][1/f_0, ..., 1/f_{n-1}] for a fixed basis of monic irreducible
    polynomials with f_0 = x; fractions carry denominator exponent vectors
    over this basis.  The pivot x - 1 is the dividing polynomial of exact
    division and membership tests."""

    fraction_type = SFraction

    def __init__(self, p: int, polys):
        self.polys = tuple(polys)
        super().__init__(p, len(self.polys))
        self.pivot = DensePoly(p, (-1, 1))
        self.zero = self.from_poly(DensePoly.zero(p))
        self.one = self.from_poly(DensePoly.one(p))
        self._den_inverses: dict = {}

    def pivot_pow(self, k: int) -> DensePoly:
        return self._pow(self.pivot, k)

    def _den_inverse(self, den: tuple, k: int) -> DensePoly:
        """(prod f_i^{e_i})^{-1} mod pivot^k, memoized per ring."""
        key = (den, k)
        out = self._den_inverses.get(key)
        if out is None:
            modulus = self.pivot_pow(k)
            prod = DensePoly.one(self.p)
            for f, e in zip(self.polys, den):
                if e:
                    prod = prod * pow(f, e, modulus) % modulus
            out = self._den_inverses[key] = prod.invmod(modulus)
        return out

    def _scale(self, num: DensePoly, i: int, k: int) -> DensePoly:
        return num * self._pow(self.polys[i], k)

    def _divide(self, num: DensePoly, i: int):
        q, r = divmod(num, self.polys[i])
        return q if r.is_zero else None

    def from_poly(self, num: DensePoly) -> SFraction:
        return SFraction(self, num, (0,) * self.n, _canonical=True)

    def from_coeffs(self, coeffs) -> SFraction:
        return self.from_poly(DensePoly(self.p, coeffs))

    def constant(self, c: int) -> SFraction:
        return self.from_poly(DensePoly.constant(self.p, c))


def divide_exact(a: SFraction, k: int) -> SFraction:
    """Divide by pivot^k, requiring exactness.

    Raises NotDivisible when the pivot power does not divide the numerator;
    the pivot is coprime to the denominator basis.
    """
    if k < 0:
        raise ValueError("negative exactness exponent")
    if k == 0 or a.is_zero:
        return a
    q, r = divmod(a.num, a.ring.pivot_pow(k))
    if not r.is_zero:
        raise NotDivisible("numerator is not divisible by the requested power")
    return SFraction(a.ring, q, a.den, _canonical=True)


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

    __slots__ = ("p", "d", "terms", "_hash")

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
        self._hash = None

    @classmethod
    def _raw(cls, p: int, d: int, terms: dict) -> "MultiLaurent":
        """Internal: terms already reduced mod p with no zero coefficients."""
        out = cls.__new__(cls)
        out.p = p
        out.d = d
        out.terms = terms
        out._hash = None
        return out

    @property
    def key(self) -> tuple:
        """The (exponents, coefficient) pairs in sorted order."""
        return tuple(sorted(self.terms.items()))

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

    def mul_monomial(self, exps) -> "MultiLaurent":
        terms = {tuple(map(add, e, exps)): v for e, v in self.terms.items()}
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
        if self._hash is None:
            self._hash = hash((self.p, self.d, frozenset(self.terms.items())))
        return self._hash

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.key:
            factors = [
                f"x{i+1}" + (f"^{k}" if k != 1 else "")
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


class MultiSFraction(_LocalFraction):
    """num / prod g(x_i)^{z_i} in canonical form (g(x_i) never divides num
    while z_i > 0)."""

    __slots__ = ()

    def mul_monomial(self, exps) -> "MultiSFraction":
        """Multiply by a monomial, a unit of the Laurent ring."""
        return MultiSFraction(self.ring, self.num.mul_monomial(exps), self.den, _canonical=True)

    def mul_g_power(self, axis: int, k: int) -> "MultiSFraction":
        """Multiply by g(x_axis)^k for any integer k."""
        exps = [0] * self.ring.n
        exps[axis] = k
        return self._mul_basis(self.num, exps)

    def add_mul(self, other: "MultiSFraction", exps, gexps) -> "MultiSFraction":
        """self + other * x^exps * prod g(x_i)^{gexps_i} in one pass: each
        numerator is scaled at most once per axis, and only the axes where
        g(x_i) can divide the sum are trial-divided."""
        if other.is_zero:
            return self
        if self.is_zero:
            return other._mul_basis(other.num.mul_monomial(exps), gexps)
        n1, n2, den, axes = self._join(other.num.mul_monomial(exps), other.den, gexps)
        return self.ring._cancel(n1 + n2, den, axes)

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

    def render(self) -> str:
        num = self.num.render()
        if not any(self.den):
            return num
        parts = []
        for i, z in enumerate(self.den):
            if z:
                parts.append(f"g(x{i+1})" + (f"^{z}" if z > 1 else ""))
        return f"({num})/" + "*".join(parts)

    def __repr__(self) -> str:
        return f"MultiSFraction({self.render()})"


class MultiLocalizedRing(_Localization):
    """Laurent polynomials in d variables with the powers of one polynomial
    g inverted separately in each variable: denominators prod g(x_i)^{z_i}.
    With g = None nothing is inverted: the Laurent ring itself, with no
    denominator axes (n = 0, every den is ()) and g(1) read as 1."""

    fraction_type = MultiSFraction

    def __init__(self, p: int, d: int, g: DensePoly | None):
        super().__init__(p, 0 if g is None else d)
        if g is not None and g.is_zero:
            raise ValueError("localizing polynomial must be nonzero")
        self.d = d
        self.g = g
        self.g_at_one = 1 if g is None else g.eval(1)
        self.zero = self.from_laurent(MultiLaurent.zero(p, d))
        self.one = self.from_laurent(MultiLaurent.one(p, d))

    def g_pow(self, k: int) -> DensePoly:
        return self._pow(self.g, k)

    def _scale(self, num: MultiLaurent, i: int, k: int) -> MultiLaurent:
        return num.mul_univariate(self._pow(self.g, k), i)

    def _divide(self, num: MultiLaurent, i: int):
        return num.divexact_univariate(self.g, i)

    def from_laurent(self, num: MultiLaurent) -> MultiSFraction:
        return MultiSFraction(self, num, (0,) * self.n, _canonical=True)
