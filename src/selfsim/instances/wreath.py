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
N (but not on 1/g(x_1), say).  The base family is the case with no y and no
denominators, where F = f.

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
from p products N * g(x_1)^c and no group multiplication.  In the base
family k = K = 0, y is empty, g(1) reads as 1 and the index is I*p + J.
The generic `Instance.letters` stays the oracle.

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
    """(r, q) for the base family; (r, q, y) for the localized one."""

    __slots__ = ("r", "q", "y", "_hash")

    def __init__(self, r, q, y=None):
        self.r = r
        self.q = vec(tuple(q))
        self.y = vec(tuple(y)) if y is not None else None
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
        p, zeros = self.p, (0,) * (self.d - 1)
        ks = range(p) if self.localized else (None,)
        return [
            WreathElem(self._a_power(i), (j,) + zeros, None if k is None else (k,) + zeros)
            for i in range(p)
            for j in range(p)
            for k in ks
        ]

    def identity(self) -> WreathElem:
        return self._identity

    def multiply(self, a: WreathElem, b: WreathElem) -> WreathElem:
        """(a.r + b.r * x^{-a.q} * g^{-a.y}, a.q + b.q, a.y + b.y), the
        a-part as one shift-and-add."""
        neg_q = tuple(map(neg, a.q))
        q = tuple(map(add, a.q, b.q))
        if self.localized:
            r = a.r.add_mul(b.r, neg_q, tuple(map(neg, a.y)))
            return WreathElem(r, q, tuple(map(add, a.y, b.y)))
        return WreathElem(a.r + b.r.mul_monomial(neg_q), q)

    def invert(self, a: WreathElem) -> WreathElem:
        """(-a.r * x^{a.q} * g^{a.y}, -a.q, -a.y)."""
        neg_q = tuple(map(neg, a.q))
        if self.localized:
            r = self.mring.zero.add_mul(-a.r, a.q, a.y)
            return WreathElem(r, neg_q, tuple(map(neg, a.y)))
        return WreathElem(-a.r.mul_monomial(a.q), neg_q)

    def _aug(self, r) -> int:
        return r.eval_at_ones() if self.localized else r.aug()

    def h_member(self, g: WreathElem) -> bool:
        if self._aug(g.r) != 0 or g.q[0] % self.p:
            return False
        if self.localized and g.y[0] % self.p:
            return False
        return True

    def coset_index(self, g: WreathElem) -> int:
        y = g.y or (0,)
        return self._index(self._aug(g.r), g.q[0], y[0], sum(y))

    def _index(self, eps: int, q1: int, y1: int, y_sum: int) -> int:
        """Closed-form coset index of an element with augmentation eps,
        exponents q_1, y_1 and y-exponent sum y_sum: x_1^j y_1^k are the
        exponents mod p, and i solves eps = i * g(1)^(k - y_sum)."""
        p = self.p
        j = q1 % p
        if not self.localized:
            return eps % p * p + j
        k = y1 % p
        # g(1) has multiplicative order dividing p-1
        i = eps * pow(self.mring.g_at_one, (y_sum - k) % (p - 1), p) % p
        return (i * p + j) * p + k

    def letters(self, g: WreathElem) -> tuple:
        """The closed form of the module docstring: no group products, and
        one value of F per (j, k), shared by the p letters a^i x_1^j y_1^k."""
        p = self.p
        q1, q_rest = g.q[0], g.q[1:]
        if self.localized:
            ks, y1, y_rest, g1 = range(p), g.y[0], g.y[1:], self.mring.g_at_one
        else:
            ks, y1, y_rest, g1 = (0,), 0, (), 1
        nk = len(ks)
        y_rest_sum = sum(y_rest)
        eps = self._aug(g.r)
        g1_inv = pow(g1, p - 2, p)
        parts = {}
        for k in ks:
            num, w = self._cleared(g.r, k)
            for j in range(p):
                parts[j, k] = self._F(num, w, j)
        images, states = [], []
        for i in range(p):
            for j in range(p):
                for k in ks:
                    # t*g = (i + x_1^{-j} g(x_1)^{-k} r, q + j e_1, y + k e_1)
                    eps_t = (i + eps * pow(g1_inv, k, p)) % p
                    y_sum = k + y1 + y_rest_sum
                    n = self._index(eps_t, j + q1, k + y1, y_sum)
                    big_i, big_j, big_k = n // (p * nk), n // nk % p, n % nk
                    # the cofactor t*g*t_n^{-1}: its exponents and augmentation
                    q = (j + q1 - big_j,) + q_rest
                    y = (k + y1 - big_k,) + y_rest
                    eps_c = eps_t - big_i * pow(g1, (big_k - y_sum) % (p - 1), p)
                    if q[0] % p or y[0] % p or eps_c % p:
                        raise ContractViolation(
                            f"cofactor at letter {len(images)} fails subgroup membership"
                        )
                    images.append(n)
                    y_state = self._sigma(y) if self.localized else None
                    states.append(WreathElem(parts[j, k], self._sigma(q), y_state))
        return images, states

    def _sigma(self, w) -> tuple:
        """(w_d, w_1/p, w_2, ..., w_{d-1}) as a pooled vector (`ring.vec`),
        so the term keys of F and the state exponents are shared; requires
        p | w_1."""
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
        least power g(x_1)^c that allows it, times g(x_1)^(slack*p).  The
        base family has no denominators: (r, None)."""
        if not self.localized:
            return r, None
        z = r.den
        c = (-z[0] - k) % self.p + slack * self.p
        num = r.num.mul_univariate(self.mring.g_pow(c), 0) if c else r.num
        return num, (z[0] + k + c,) + z[1:]

    def _F(self, num, w, j: int = 0):
        """F(x_1^{-j} N / g^w) = f(x_1^{-j} N) / g^{sigma(w)} for (N, w)
        from `_cleared`."""
        f = self._f(num, j)
        return f if w is None else self.mring.fraction(f, self._sigma(w))

    def endo_f(self, g: WreathElem) -> WreathElem:
        return self._endo(g, 0)

    def _endo(self, g: WreathElem, slack: int) -> WreathElem:
        if not self.h_member(g):
            raise NotInH("element is not in the subgroup H")
        y = self._sigma(g.y) if self.localized else None
        return WreathElem(self._F(*self._cleared(g.r, slack=slack)), self._sigma(g.q), y)

    def localized_endo_with_slack(self, g: WreathElem, slack: int) -> WreathElem:
        """The endomorphism computed with a non-minimal admissible
        denominator-clearing power; must agree with endo_f."""
        if not self.localized:
            raise ValueError("base instance has no localized endomorphism")
        return self._endo(g, slack)

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
