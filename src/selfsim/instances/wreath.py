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
endomorphism is F on the a-part, where F clears the denominator with the
least power g(x_1)^c making the g(x_1)-exponent divisible by p:

    F(N / g^z) = f(N * g(x_1)^c) / g^{sigma(z + c e_1)},   c = -z_1 mod p.

Two facts about F carry the decomposition.  (1) F is additive and does
not depend on the clearing power (any c + p*s gives the same value, since
g(x)^p = g(x^p) over F_p); `localized_endo_with_slack` exercises this.
(2) F vanishes on N / g^z when p divides z_1 and every x_1-exponent of
N (but not on 1/g(x_1), say).

One code path.  The base family is the localized one with nothing
inverted and no y: its ring is `MultiLocalizedRing(p, d, None)`, whose
fractions all have the empty denominator, and its elements are (r, q, ()).
Every method runs the localized code.  With y empty, y_1 and the letter
digit k read as 0 and g(1) reads as 1, so there is one letter per (i, j)
instead of p, and F = f.

Closed-form decomposition (`letters`).  For g = (r, q, y) and the letter
t = a^i x_1^j y_1^k, let J = (j + q_1) mod p, K = (k + y_1) mod p and let
eps be evaluation at all ones.  Then t*g lies in the coset of the letter
a^I x_1^J y_1^K, with index (I*p + J)*p + K, where

    I = (i + g(1)^{-k} eps(r)) * g(1)^{(k + y_1 - K + y_2 + ... + y_d) mod (p-1)},

and the state at t is

    (F(x_1^{-j} g(x_1)^{-k} r), sigma(j + q_1 - J, q_2, ...),
                                sigma(k + y_1 - K, y_2, ...)).

The cofactor t*g*(a^I x_1^J y_1^K)^{-1} has a-part
i + x_1^{-j} g(x_1)^{-k} r - I * x_1^{-pa} * (a monomial in x_2..x_d)
* g(x_1^p)^{-b} * prod_{i>=2} g(x_i)^{-y_i}; by (2), F kills the first and
the third summand.  So the p^3 states take p^2 values of F, which come
from p products N * g(x_1)^c and no group multiplication; in the base
family the index is I*p + J.  The generic `Instance.letters` stays the
oracle.

These groups are not claimed finite-state; state searches must run under
a cap.  The admissible localizing polynomials are those with at least two
terms (not c x^j) and g(1) != 0.
"""

from __future__ import annotations

from operator import add, neg

from ..engine import ContractViolation, Instance, NotInH
from ..ring import (
    DensePoly,
    MultiLaurent,
    MultiLocalizedRing,
    is_prime,
    vec,
)
from . import InstanceConfigError


class WreathElem:
    """(r, q, y): r a fraction of `MultiLocalizedRing`, y empty in the
    base family."""

    __slots__ = ("r", "q", "y", "_hash")

    def __init__(self, r, q, y=()):
        self.r = r
        self.q = vec(tuple(q))
        self.y = vec(tuple(y))
        self._hash = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
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
        if localized:
            if g is None:
                raise InstanceConfigError("localized instance requires a polynomial g")
            problems = validate_localizer(p, g)
            if problems:
                raise InstanceConfigError("; ".join(problems))
        elif g is not None:
            raise InstanceConfigError("wreath config key 'g' needs \"localized\": true")
        self.p = p
        self.d = d
        self.localized = localized
        self.g = g
        # n = d denominator axes and y coordinates, or none in the base family
        self.mring = MultiLocalizedRing(p, d, g)
        # the letter digit k of y_1^k takes p values, or only 0 in the base family
        self.nk = p if localized else 1
        self._identity = WreathElem(self.mring.zero, (0,) * d, (0,) * self.mring.n)

    # -- contract -------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.p ** 2 * self.nk

    def _a_power(self, c: int):
        return self.mring.from_laurent(MultiLaurent.monomial(self.p, self.d, (0,) * self.d, c))

    def _build_transversal(self):
        p, n, zeros = self.p, self.mring.n, (0,) * (self.d - 1)
        return [
            WreathElem(self._a_power(i), (j,) + zeros, ((k,) + zeros)[:n])  # y = () when n = 0
            for i in range(p)
            for j in range(p)
            for k in range(self.nk)
        ]

    def identity(self) -> WreathElem:
        return self._identity

    def multiply(self, a: WreathElem, b: WreathElem) -> WreathElem:
        """(a.r + b.r * x^{-a.q} * g^{-a.y}, a.q + b.q, a.y + b.y), the
        a-part as one shift-and-add."""
        r = a.r.add_mul(b.r, tuple(map(neg, a.q)), tuple(map(neg, a.y)))
        return WreathElem(r, tuple(map(add, a.q, b.q)), tuple(map(add, a.y, b.y)))

    def invert(self, a: WreathElem) -> WreathElem:
        """(-a.r * x^{a.q} * g^{a.y}, -a.q, -a.y)."""
        r = self.mring.zero.add_mul(-a.r, a.q, a.y)
        return WreathElem(r, tuple(map(neg, a.q)), tuple(map(neg, a.y)))

    def h_member(self, g: WreathElem) -> bool:
        # sum(y[:1]) is y_1, or 0 when y is empty
        return not (g.r.eval_at_ones() or g.q[0] % self.p or sum(g.y[:1]) % self.p)

    def coset_index(self, g: WreathElem) -> int:
        return self._index(g.r.eval_at_ones(), g.q[0], sum(g.y[:1]), sum(g.y))

    def _index(self, eps: int, q1: int, y1: int, y_sum: int) -> int:
        """Closed-form coset index of an element with augmentation eps,
        exponents q_1, y_1 and y-exponent sum y_sum: x_1^j y_1^k are the
        exponents mod p, and i solves eps = i * g(1)^(k - y_sum)."""
        p = self.p
        j, k = q1 % p, y1 % p
        # g(1) has multiplicative order dividing p-1
        i = eps * pow(self.mring.g_at_one, (y_sum - k) % (p - 1), p) % p
        return (i * p + j) * self.nk + k

    def letters(self, g: WreathElem) -> tuple:
        """The closed form of the module docstring: no group products, and
        one value of F per (j, k), shared by the p letters a^i x_1^j y_1^k."""
        p, nk, n, g1 = self.p, self.nk, self.mring.n, self.mring.g_at_one
        q1, q_rest = g.q[0], g.q[1:]
        y1, y_rest = sum(g.y[:1]), g.y[1:]  # y_1 reads 0 when y is empty
        y_rest_sum = sum(y_rest)
        eps = g.r.eval_at_ones()
        g1_inv = pow(g1, p - 2, p)
        parts = {}
        for k in range(nk):
            num, w = self._cleared(g.r, k)
            for j in range(p):
                parts[j, k] = self._F(num, w, j)
        images, states = [], []
        for i in range(p):
            for j in range(p):
                for k in range(nk):
                    # t*g = (i + x_1^{-j} g(x_1)^{-k} r, q + j e_1, y + k e_1)
                    eps_t = (i + eps * pow(g1_inv, k, p)) % p
                    y_sum = k + y1 + y_rest_sum
                    m = self._index(eps_t, j + q1, k + y1, y_sum)
                    big_i, big_j, big_k = m // (p * nk), m // nk % p, m % nk
                    # the cofactor t*g*t_m^{-1}: its exponents and augmentation
                    q = (j + q1 - big_j,) + q_rest
                    y = ((k + y1 - big_k,) + y_rest)[:n]  # () when n = 0
                    eps_c = eps_t - big_i * pow(g1, (big_k - y_sum) % (p - 1), p)
                    if q[0] % p or sum(y[:1]) % p or eps_c % p:
                        raise ContractViolation(
                            f"cofactor at letter {len(images)} fails subgroup membership"
                        )
                    images.append(m)
                    states.append(WreathElem(parts[j, k], self._sigma(q), self._sigma(y)))
        return images, states

    def _sigma(self, w) -> tuple:
        """(w_d, w_1/p, w_2, ..., w_{d-1}) as a pooled vector (`ring.vec`),
        so the term keys of F and the state exponents are shared; requires
        p | w_1.  The empty y of the base family maps to ()."""
        if not w:
            return w
        if w[0] % self.p:
            raise NotInH("first exponent is not divisible by p")
        if self.d == 1:
            return vec((w[0] // self.p,))
        return vec((w[-1], w[0] // self.p) + w[1:-1])

    def _f(self, num: MultiLaurent, j: int = 0) -> MultiLaurent:
        """f(x_1^{-j} num) for the linear extension f of the a-part
        endomorphism; defined on every Laurent polynomial."""
        p = self.p
        out: dict = {}
        for exps, c in num.terms.items():
            w1 = exps[0] - j
            i = w1 % p
            if not i:
                continue
            target = self._sigma((w1 - i,) + exps[1:])
            v = (out.get(target, 0) + c * i) % p
            if v:
                out[target] = v
            elif target in out:
                del out[target]
        return MultiLaurent._raw(p, self.d, out)

    def _cleared(self, r, k: int = 0, slack: int = 0) -> tuple:
        """(N, w) with r / g(x_1)^k = N / g^w and p | w_1, cleared by the
        least power g(x_1)^c that allows it, times g(x_1)^(slack*p).  With
        no denominator axes (the base family, where k = 0) it is (r.num, ())."""
        z = r.den
        if not z:
            return r.num, z
        c = (-z[0] - k) % self.p + slack * self.p
        num = r.num.mul_univariate(self.mring.g_pow(c), 0) if c else r.num
        return num, (z[0] + k + c,) + z[1:]

    def _F(self, num, w, j: int = 0):
        """F(x_1^{-j} N / g^w) = f(x_1^{-j} N) / g^{sigma(w)} for (N, w)
        from `_cleared`."""
        return self.mring.fraction(self._f(num, j), self._sigma(w))

    def endo_f(self, g: WreathElem) -> WreathElem:
        return self._endo(g, 0)

    def _endo(self, g: WreathElem, slack: int) -> WreathElem:
        if not self.h_member(g):
            raise NotInH("element is not in the subgroup H")
        r = self._F(*self._cleared(g.r, slack=slack))
        return WreathElem(r, self._sigma(g.q), self._sigma(g.y))

    def localized_endo_with_slack(self, g: WreathElem, slack: int) -> WreathElem:
        """The endomorphism computed with a non-minimal admissible
        denominator-clearing power; must agree with endo_f."""
        if not self.localized:
            raise ValueError("base instance has no localized endomorphism")
        return self._endo(g, slack)

    def generators(self) -> dict:
        d, n, zero = self.d, self.mring.n, self._a_power(0)

        def unit(i, m):
            return tuple(1 if t == i else 0 for t in range(m))

        gens = {"e": self._identity, "a": WreathElem(self._a_power(1), (0,) * d, (0,) * n)}
        for i in range(d):
            gens[f"x{i+1}"] = WreathElem(zero, unit(i, d), (0,) * n)
        for i in range(n):
            gens[f"y{i+1}"] = WreathElem(zero, (0,) * d, unit(i, n))
        return gens

    def render(self, g: WreathElem) -> str:
        parts = []
        if not g.r.is_zero:
            r = g.r.render()
            parts.append("a" if r == "1" else f"a^({r})")
        for name, exps in (("x", g.q), ("y", g.y)):
            for i, e in enumerate(exps):
                if e:
                    parts.append(f"{name}{i+1}" + (f"^{e}" if e != 1 else ""))
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
        """Draws q, one denominator exponent per axis, the Laurent
        numerator, then y: the base family draws only q and the numerator."""
        n = self.mring.n
        q = tuple(rng.randrange(-span, span + 1) for _ in range(self.d))
        den = tuple(rng.randrange(2) for _ in range(n))
        r = self.mring.fraction(self._random_laurent(rng, span), den)
        y = tuple(rng.randrange(-span, span + 1) for _ in range(n))
        return WreathElem(r, q, y)

    def random_h_element(self, rng, span=2) -> WreathElem:
        g = self.random_element(rng, span)
        # force augmentation zero and subgroup-compatible exponents
        p, num = self.p, g.r.num
        aug = num.aug()
        if aug:
            num = num - MultiLaurent.monomial(p, self.d, (0,) * self.d, aug)
        q = (g.q[0] - g.q[0] % p,) + g.q[1:]
        y = tuple(e - e % p for e in g.y[:1]) + g.y[1:]
        return WreathElem(self.mring.fraction(num, g.r.den), q, y)
