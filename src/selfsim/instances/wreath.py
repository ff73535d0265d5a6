"""C_p wr Z^d and its localization at the powers of one polynomial.

Base family: elements (r, q) with r a Laurent polynomial over F_p in
x_1..x_d (the exponent of the order-p generator a) and q in Z^d, product

    (r1, q1)(r2, q2) = (r1 + r2 * x^{-q1}, q1 + q2).

The subgroup H keeps the augmentation of r zero and q_1 divisible by p;
the transversal is a^i x_1^j (0 <= i, j < p), degree p^2.  On exponent
vectors the endomorphism acts by the cyclic scheme

    sigma(w) = (w_d, w_1/p, w_2, ..., w_{d-1}),

and on the a-part by the linear extension of  a^{z x_1^i - 1} -> a^{i sigma(z)}
(z with p | z_1, 0 <= i < p): each monomial c x^w contributes
c * (w_1 mod p) * x^{sigma(w - (w_1 mod p) e_1)}.

Localized family: the a-exponents live in the localization at
S = products of g(x_i)^{z_i} and the torsion-free part gains y_1..y_d
acting by multiplication with g(x_i).  Elements are (r, q, y) with r a
canonical fraction num / prod g(x_i)^{z_i}.  The subgroup additionally
requires p | y_1 (transversal a^i x_1^j y_1^k, degree p^3), and the
endomorphism clears the denominator with the minimal power s_1 = g(x_1)^k
making the g(x_1)-exponent divisible by p:

    f~(num/s) = f(num * s_1) / g^{sigma(exps of s * s_1)}.

Well-definedness (independence of the admissible power) is a library
check, exercised through `localized_endo_with_slack`.

These groups are not claimed finite-state; state searches must run under
a cap.  The admissible localizing polynomials are those with at least two
terms (not c x^j) and g(1) != 0.
"""

from __future__ import annotations

from ..engine import Instance
from ..ring import (
    DensePoly,
    MultiLaurent,
    MultiLocalizedRing,
    is_prime,
)
from . import InstanceConfigError


class NotInH(ValueError):
    """The endomorphism was applied outside its domain subgroup."""


class WreathElem:
    """(r, q) for the base family; (r, q, y) for the localized one."""

    __slots__ = ("r", "q", "y", "_hash")

    def __init__(self, r, q, y=None):
        self.r = r
        self.q = tuple(q)
        self.y = tuple(y) if y is not None else None
        self._hash = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WreathElem)
            and self.r == other.r
            and self.q == other.q
            and self.y == other.y
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.r, self.q, self.y))
        return self._hash

    def __repr__(self) -> str:
        return f"WreathElem(a^({self.r.render()}), q={self.q}, y={self.y})"


def validate_localizer(p: int, g: DensePoly) -> list[str]:
    """Admissibility problems for the localizing polynomial, if any."""
    problems = []
    if g.is_zero or sum(1 for c in g.coeffs if c) < 2:
        problems.append("localizing polynomial must have at least two terms")
    if not g.is_zero and g.eval(1) == 0:
        problems.append("localizing polynomial must not vanish at 1")
    return problems


class WreathInstance(Instance):
    family = "wreath"

    def __init__(self, p: int, d: int, g: DensePoly | None = None, localized: bool = False):
        if not is_prime(p):
            raise InstanceConfigError(f"{p} is not prime")
        if d < 1:
            raise InstanceConfigError("rank d must be >= 1")
        self.p = p
        self.d = d
        self.localized = localized
        if localized:
            if g is None:
                raise InstanceConfigError("localized instance requires a polynomial g")
            problems = validate_localizer(p, g)
            if problems:
                raise InstanceConfigError("; ".join(problems))
            self.g = g
            self.mring = MultiLocalizedRing(p, d, g)
            self._identity = WreathElem(self.mring.zero, (0,) * d, (0,) * d)
        else:
            self.g = None
            self.mring = None
            self._identity = WreathElem(MultiLaurent.zero(p, d), (0,) * d)

    # -- contract -------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.p ** 3 if self.localized else self.p ** 2

    def _a_power(self, c: int):
        mono = MultiLaurent.monomial(self.p, self.d, (0,) * self.d, c)
        if self.localized:
            return self.mring.from_laurent(mono)
        return mono

    def _build_transversal(self):
        p, d = self.p, self.d
        out = []
        if self.localized:
            for i in range(p):
                for j in range(p):
                    for k in range(p):
                        out.append(
                            WreathElem(
                                self._a_power(i),
                                (j,) + (0,) * (d - 1),
                                (k,) + (0,) * (d - 1),
                            )
                        )
        else:
            for i in range(p):
                for j in range(p):
                    out.append(WreathElem(self._a_power(i), (j,) + (0,) * (d - 1)))
        return out

    def identity(self) -> WreathElem:
        return self._identity

    def _shift_r(self, r, q, y):
        """r * x^{-q} * g^{-y}: the conjugation action of (q, y)^{-1}."""
        neg_q = tuple(-e for e in q)
        if self.localized:
            out = r.mul_monomial(neg_q)
            for axis, k in enumerate(y):
                if k:
                    out = out.mul_g_power(axis, -k)
            return out
        return r.mul_monomial(neg_q)

    def multiply(self, a: WreathElem, b: WreathElem) -> WreathElem:
        r = a.r + self._shift_r(b.r, a.q, a.y)
        q = tuple(x + y for x, y in zip(a.q, b.q))
        if self.localized:
            return WreathElem(r, q, tuple(x + y for x, y in zip(a.y, b.y)))
        return WreathElem(r, q)

    def invert(self, a: WreathElem) -> WreathElem:
        neg_q = tuple(-e for e in a.q)
        neg_y = tuple(-e for e in a.y) if self.localized else None
        r = -self._shift_r(a.r, neg_q, neg_y)
        return WreathElem(r, neg_q, neg_y)

    def _aug(self, r) -> int:
        return r.eval_at_ones() if self.localized else r.aug()

    def h_member(self, g: WreathElem) -> bool:
        if self._aug(g.r) != 0 or g.q[0] % self.p:
            return False
        if self.localized and g.y[0] % self.p:
            return False
        return True

    def coset_index(self, g: WreathElem) -> int:
        """Closed form: the exponents mod p locate the x_1/y_1 letters and
        the augmentation determines the a-letter, solving
        aug(r) = i * g(1)^(k - sum y)."""
        p = self.p
        if self.localized:
            j = g.q[0] % p
            k = g.y[0] % p
            # g(1) has multiplicative order dividing p-1
            i = (
                g.r.eval_at_ones()
                * pow(self.mring.g_at_one, (sum(g.y) - k) % (p - 1), p)
            ) % p
            return (i * p + j) * p + k
        j = g.q[0] % p
        i = g.r.aug()
        return i * p + j

    def _sigma(self, w) -> tuple:
        """(w_d, w_1/p, w_2, ..., w_{d-1}); requires p | w_1."""
        if w[0] % self.p:
            raise NotInH("first exponent is not divisible by p")
        if self.d == 1:
            return (w[0] // self.p,)
        return (w[-1], w[0] // self.p) + tuple(w[1:-1])

    def _f_laurent(self, r: MultiLaurent) -> MultiLaurent:
        """The endomorphism on augmentation-zero Laurent exponents."""
        if r.aug() != 0:
            raise NotInH("a-part is not in the augmentation kernel")
        p = self.p
        out: dict = {}
        for exps, c in r.terms.items():
            i = exps[0] % p
            if not i:
                continue
            z = (exps[0] - i,) + exps[1:]
            target = self._sigma(z)
            v = (out.get(target, 0) + c * i) % p
            if v:
                out[target] = v
            elif target in out:
                del out[target]
        return MultiLaurent(p, self.d, out)

    def endo_f(self, g: WreathElem) -> WreathElem:
        if self.localized:
            return self._localized_endo(g, 0)
        if g.q[0] % self.p:
            raise NotInH("torsion-free part is not in the subgroup")
        return WreathElem(self._f_laurent(g.r), self._sigma(g.q))

    def _localized_endo(self, g: WreathElem, slack: int) -> WreathElem:
        """Clear the denominator with s_1 = g(x_1)^(k + slack*p), apply the
        base endomorphism, divide by the image denominator."""
        if g.q[0] % self.p or g.y[0] % self.p:
            raise NotInH("torsion-free part is not in the subgroup")
        z = g.r.den
        k = (-z[0]) % self.p + slack * self.p
        num = g.r.num
        if k:
            num = num.mul_univariate(self.mring.g_pow(k), 0)
        fnum = self._f_laurent(num)
        w = (z[0] + k,) + z[1:]
        r = self.mring.fraction(fnum, self._sigma(w))
        return WreathElem(r, self._sigma(g.q), self._sigma(g.y))

    def localized_endo_with_slack(self, g: WreathElem, slack: int) -> WreathElem:
        """The endomorphism computed with a non-minimal admissible
        denominator-clearing power; must agree with endo_f."""
        if not self.localized:
            raise ValueError("base instance has no localized endomorphism")
        return self._localized_endo(g, slack)

    def generators(self) -> dict:
        d = self.d
        gens = {"e": self._identity, "a": WreathElem(
            self._a_power(1), (0,) * d, (0,) * d if self.localized else None
        )}
        for i in range(d):
            q = tuple(1 if t == i else 0 for t in range(d))
            gens[f"x{i+1}"] = WreathElem(
                self._a_power(0), q, (0,) * d if self.localized else None
            )
        if self.localized:
            for i in range(d):
                y = tuple(1 if t == i else 0 for t in range(d))
                gens[f"y{i+1}"] = WreathElem(self._a_power(0), (0,) * d, y)
        return gens

    def render(self, g: WreathElem) -> str:
        parts = []
        if not g.r.is_zero:
            r = g.r.render()
            parts.append("a" if r == "1" else f"a^({r})")
        for i, e in enumerate(g.q):
            if e:
                parts.append(f"x{i+1}" + (f"^{e}" if e != 1 else ""))
        if self.localized:
            for i, e in enumerate(g.y):
                if e:
                    parts.append(f"y{i+1}" + (f"^{e}" if e != 1 else ""))
        return " ".join(parts) if parts else "e"

    def describe(self) -> dict:
        out = {
            "family": self.family,
            "p": self.p,
            "d": self.d,
            "localized": self.localized,
            "degree": self.degree,
        }
        if self.g is not None:
            out["g"] = self.g.to_json()
        return out

    # -- random sampling ----------------------------------------------------------

    def _random_laurent(self, rng, span=2, terms=3) -> MultiLaurent:
        data = {}
        for _ in range(rng.randrange(terms + 1)):
            e = tuple(rng.randrange(-span, span + 1) for _ in range(self.d))
            data[e] = rng.randrange(1, self.p) if self.p > 2 else 1
        return MultiLaurent(self.p, self.d, data)

    def random_element(self, rng, span=2) -> WreathElem:
        q = tuple(rng.randrange(-span, span + 1) for _ in range(self.d))
        if self.localized:
            den = tuple(rng.randrange(2) for _ in range(self.d))
            r = self.mring.fraction(self._random_laurent(rng, span), den)
            y = tuple(rng.randrange(-span, span + 1) for _ in range(self.d))
            return WreathElem(r, q, y)
        return WreathElem(self._random_laurent(rng, span), q)

    def random_h_element(self, rng, span=2) -> WreathElem:
        g = self.random_element(rng, span)
        # force augmentation zero and subgroup-compatible exponents
        if self.localized:
            num = g.r.num
            aug = num.aug()
            if aug:
                num = num - MultiLaurent.monomial(self.p, self.d, (0,) * self.d, aug)
            r = self.mring.fraction(num, g.r.den)
        else:
            aug = g.r.aug()
            r = g.r
            if aug:
                r = r - MultiLaurent.monomial(self.p, self.d, (0,) * self.d, aug)
        q = (g.q[0] - g.q[0] % self.p,) + g.q[1:]
        if self.localized:
            y = (g.y[0] - g.y[0] % self.p,) + g.y[1:]
            return WreathElem(r, q, y)
        return WreathElem(r, q)
