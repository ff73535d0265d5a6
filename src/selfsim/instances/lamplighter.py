"""The metabelian family u^r q over a localized ring.

Elements are pairs (r, q) standing for u^r x_0^{q_0} ... x_{n-1}^{q_{n-1}}
with u^p = 1, r in A = F_p[1/x, 1/f_1, ..., 1/f_{n-1}] and q in Z^n; the
generator x_j acts on exponents by multiplication with f_j.  All basis
polynomials evaluate to 1 at x = 1 (f_0 = x does automatically), so the
subgroup H of pairs with r(1) = 0 is picked out by evaluation at 1 and the
transversal is u^0, ..., u^{p-1}.  The endomorphism divides r by x-1.

With the product convention

    (r1, q1) * (r2, q2) = (r1 + r2 * phi(q1)^{-1}, q1 + q2),
    phi(q) = f_0^{q_0} * ... * f_{n-1}^{q_{n-1}},

the exponent of a product is one shift-and-add of the ring (`_add_mul`):
r1 and r2 * phi(q1)^{-1} are put over one denominator, each numerator
scaled at most once per basis polynomial (by a shift for f_0 = x), and
the sum is cancelled once.  The inverse (-r * phi(q), -q) is the same
shift-and-add onto 0, and `share` stores an exponent through the ring's
`pooled`, one object per value.  The generators decompose in closed form:

    u          -> trivial states, the p-cycle (0 1 ... p-1);
    x_j        -> states u^{-i (f_j^{-1} - 1)/(x-1)} x_j, trivial perm;
    x_j^{-1}   -> states u^{-i (f_j - 1)/(x-1)} x_j^{-1}, trivial perm;
    u^lam x_j^{-1}
               -> states u^{lt - s_i (f_j - 1)/(x-1)} x_j^{-1} shifted by
                  lam(1), where lam = (x-1) lt + lam(1) and
                  s_i = (i + lam(1)) mod p.

For p = 2, n = 1 this is the classical two-state lamplighter machine.

Every element decomposes in closed form (`letters`), with no group
product.  For g = (r, q) let c = r(1).  Then u^i g = (i + r, q) lies in
the coset of u^j, j = (i + c) mod p, and the cofactor
u^i g u^{-j} = (i + r - j phi(q)^{-1}, q) has the state

    ((r - c)/(x-1) + j (1 - phi(q)^{-1})/(x-1), q) = (B + j W, q),

because i + c - j vanishes in F_p.  With r = N/D, D = prod f_i^{e_i}, the
ring subtraction r - c scales c onto D and trial-divides nothing, since
f_i divides c D but not N wherever e_i > 0; B is then one exact division
by x-1.  W depends on q only and is memoized; B and W are put over one
denominator once per element, so a letter costs a scalar multiple, a sum
and its cancellation.  The generic `Instance.letters` stays the oracle.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, neg

from ..engine import ContractViolation, Instance, NotInH, WreathDecomp, decompose, states_within
from ..ring import (
    DensePoly,
    LocalizedRing,
    SFraction,
    divide_exact,
    validate_config,
    vec,
)
from . import InstanceConfigError


class LampElem(namedtuple("LampElem", "r q")):
    """u^r times a Z^n part, in canonical form."""

    __slots__ = ()

    def __new__(cls, r: SFraction, q):
        return tuple.__new__(cls, (r, vec(tuple(q))))


class LampInstance(Instance):
    family = "lamplighter"

    def __init__(self, p: int, polys):
        report = validate_config(p, polys, require_one_at_one=True)
        if not report.ok:
            raise InstanceConfigError("; ".join(report.problems))
        self.validation = report
        self.p = p
        self.ring = LocalizedRing(p, polys)
        self.n = len(self.ring.polys)
        self._identity = LampElem(self.ring.zero, (0,) * self.n)
        self._ws: dict = {}

    # -- contract --------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.p

    def _build_transversal(self):
        return [LampElem(self.ring.constant(i), (0,) * self.n) for i in range(self.p)]

    def identity(self) -> LampElem:
        return self._identity

    def multiply(self, a: LampElem, b: LampElem) -> LampElem:
        """(a.r + b.r * phi(a.q)^{-1}, a.q + b.q), the exponent as one
        shift-and-add."""
        r = a.r._add_mul(b.r, b.r.num, tuple(map(neg, a.q)))
        return LampElem(r, tuple(map(add, a.q, b.q)))

    def invert(self, a: LampElem) -> LampElem:
        """(-a.r * phi(a.q), -a.q), the exponent as a shift-and-add onto 0."""
        r = self.ring.zero._add_mul(a.r, -a.r.num, a.q)
        return LampElem(r, tuple(map(neg, a.q)))

    def h_member(self, g: LampElem) -> bool:
        return g.r.eval_at_one() == 0

    def endo_f(self, g: LampElem) -> LampElem:
        if not self.h_member(g):
            raise NotInH("exponent does not vanish at 1")
        return LampElem(divide_exact(g.r, 1), g.q)

    def coset_index(self, g: LampElem) -> int:
        return self._index(g.r.eval_at_one())

    def _index(self, c: int) -> int:
        """The coset u^j holding an element whose exponent takes the value
        c at 1."""
        return c % self.p

    def letters(self, g: LampElem) -> tuple:
        """The closed form (B + j W, q) of the module docstring."""
        p, ring = self.p, self.ring
        r, q = g
        c = r.eval_at_one()
        base = divide_exact(r - ring.constant(c) if c else r, 1)
        # B and W over one denominator, so that B + j W scales nothing
        num_b, num_w, den, axes = base._join(*self._w(q))
        images, states = [], []
        for i in range(p):
            j = self._index(i + c)
            # the cofactor's exponent takes the value i + c - j at 1
            if (i + c - j) % p:
                raise ContractViolation(f"cofactor at letter {i} fails subgroup membership")
            images.append(j)
            s = ring._cancel(num_b + num_w.mul_scalar(j), list(den), axes) if j else base
            # q is pooled already
            states.append(tuple.__new__(LampElem, (s, q)))
        return images, states

    def share(self, g: LampElem) -> LampElem:
        """g with its exponent from the value pool (`pooled`), which also
        holds the exponent's numerator; q is a pooled vector already."""
        r = g.r.pooled(self._value_pool)
        return g if r is g.r else tuple.__new__(LampElem, (r, g.q))

    def _w(self, q) -> tuple:
        """The numerator and denominator of W = (1 - phi(q)^{-1}) / (x-1),
        memoized per instance."""
        w = self._ws.get(q)
        if w is None:
            phi_inv = self.ring.one.mul_unit(1, tuple(-e for e in q))
            w = divide_exact(self.ring.one - phi_inv, 1)
            w = self._ws[q] = (w.num, w.den)
        return w

    def generators(self) -> dict:
        gens = {"e": self._identity, "u": LampElem(self.ring.one, (0,) * self.n)}
        for j in range(self.n):
            q = tuple(1 if i == j else 0 for i in range(self.n))
            gens[f"x{j}"] = LampElem(self.ring.zero, q)
        return gens

    def render(self, g: LampElem) -> str:
        parts = []
        if not g.r.is_zero:
            r = g.r.render()
            parts.append("u" if r == "1" else f"u^({r})")
        for j, e in enumerate(g.q):
            if e:
                parts.append(f"x{j}" + (f"^{e}" if e != 1 else ""))
        return " ".join(parts) if parts else "e"

    def describe(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "n": self.n,
            "polys": [f.to_json() for f in self.ring.polys],
            "degree": self.degree,
        }

    def random_element(self, rng) -> LampElem:
        num = DensePoly(self.p, [rng.randrange(self.p) for _ in range(4)])  # degree <= 3
        den = tuple(rng.randrange(2) for _ in range(self.n))
        q = tuple(rng.randrange(-2, 3) for _ in range(self.n))
        return LampElem(self.ring.fraction(num, den), q)

    def random_h_element(self, rng) -> LampElem:
        g = self.random_element(rng)
        r = g.r * self.ring.from_poly(self.ring.pivot)
        return LampElem(r, g.q)

    # -- closed forms ------------------------------------------------------

    def u_power(self, lam: DensePoly) -> LampElem:
        """The element u^{lam} for a polynomial exponent."""
        return LampElem(self.ring.from_poly(lam), (0,) * self.n)

    def closed_form_decompose(self, g: LampElem) -> WreathDecomp:
        """Decomposition of the supported generator shapes without the
        engine: u^{+-1}, x_j^{+-1}, and u^lam x_j^{-1} with lam a
        polynomial.  Raises ValueError off these shapes."""
        p = self.p
        ring = self.ring
        zeros = (0,) * self.n
        if g.q == zeros and g.r == ring.one:
            return WreathDecomp(tuple((i + 1) % p for i in range(p)), (self._identity,) * p)
        if g.q == zeros and g.r == ring.constant(-1):
            return WreathDecomp(tuple((i - 1) % p for i in range(p)), (self._identity,) * p)
        j = next((k for k, e in enumerate(g.q) if e), None)
        if j is None or any(e for k, e in enumerate(g.q) if k != j):
            raise ValueError("unsupported element shape")
        f_j = ring.polys[j]
        if g.q[j] == 1 and g.r.is_zero:
            # states u^{-i (f_j^{-1} - 1)/(x-1)} x_j
            w = divide_exact(ring.fraction(DensePoly.one(p) - f_j, tuple(
                1 if k == j else 0 for k in range(self.n)
            )), 1)
            states = tuple(
                LampElem(w.mul_unit(-i % p, zeros) if i else ring.zero, g.q)
                for i in range(p)
            )
            return WreathDecomp(tuple(range(p)), states)
        if g.q[j] == -1 and g.r.is_poly:
            lam = g.r.num
            lt, lam1 = divmod(lam, ring.pivot)[0], lam.eval(1)
            w = divide_exact(ring.from_poly(f_j - DensePoly.one(p)), 1)
            states = []
            for i in range(p):
                s = (i + lam1) % p
                r = ring.from_poly(lt) - w.mul_unit(s, zeros) if s else ring.from_poly(lt)
                states.append(LampElem(r, g.q))
            return WreathDecomp(tuple((i + lam1) % p for i in range(p)), tuple(states))
        raise ValueError("unsupported element shape")

    def power_identity_check(self, i_max: int, lambdas) -> bool:
        """Check the two power decomposition identities against the engine:

            u^{x^i} = (u^{x^{i-1}} ... u^x u)^{(1)} u
            u^{lam} = (u^{(lam - lam(1))/(x-1)})^{(1)} u^{lam(1)}
        """
        p = self.p
        ring = self.ring
        cycle = tuple((i + 1) % p for i in range(p))
        for i in range(1, i_max + 1):
            lhs = decompose(self, self.u_power(DensePoly.x(p) ** i))
            acc = DensePoly.zero(p)
            for k in range(i):
                acc = acc + DensePoly.x(p) ** k
            expected = WreathDecomp(cycle, (self.u_power(acc),) * p)
            if lhs != expected:
                return False
        for lam in lambdas:
            lhs = decompose(self, self.u_power(lam))
            lt, lam1 = divmod(lam, ring.pivot)[0], lam.eval(1)
            perm = tuple((i + lam1) % p for i in range(p))
            expected = WreathDecomp(perm, (self.u_power(lt),) * p)
            if lhs != expected:
                return False
        return True

    # -- state-closed subsets ---------------------------------------------

    def y_set_member(self, g: LampElem, j: int) -> bool:
        """Membership in Y_j = {u^lam x_j^{-1} : deg lam <= deg f_j or 0}."""
        if g.q != tuple(-1 if k == j else 0 for k in range(self.n)):
            return False
        if not g.r.is_poly:
            return False
        return g.r.is_zero or g.r.num.degree <= self.ring.polys[j].degree

    def y_set(self, j: int) -> list:
        """All of Y_j, enumerated deterministically."""
        import itertools

        deg = int(self.ring.polys[j].degree)
        q = tuple(-1 if k == j else 0 for k in range(self.n))
        out = []
        for coeffs in itertools.product(range(self.p), repeat=deg + 1):
            out.append(LampElem(self.ring.from_coeffs(coeffs), q))
        return out

    def yj_closure_check(self, j: int) -> bool:
        """Breadth-first closure from every element of Y_j stays in Y_j (cap |Y_j|)."""
        members = self.y_set(j)
        return all(
            states_within(self, g, len(members), lambda e: self.y_set_member(e, j)) for g in members
        )
