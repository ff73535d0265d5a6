"""Generic virtual-endomorphism-to-tree-action machinery.

An *instance* packages a group G, a finite-index subgroup H with a right
transversal t_0, ..., t_{m-1} (t_0 in H), and a homomorphism f defined on
H only: `endo_f` raises `NotInH` outside H.  The default decomposition
calls `coset_index` and `endo_f` once per letter, so f itself is the one
membership test of each cofactor; `h_member` serves the exhaustive coset
search and the validators.  Every group element then acts on the rooted
m-ary tree through its wreath decomposition

    g = (g_0, ..., g_{m-1}) sigma,

where sigma sends i to the index of the coset containing t_i * g and
g_i = f(t_i * g * t_{sigma(i)}^{-1}).  The decomposition of a product
satisfies

    (g h)_i = g_i * h_{sigma_g(i)},   sigma_{gh} = sigma_g then sigma_h,

which `product_rule_check` verifies recursively.  Iterating the
decomposition yields the state set of an element; when the breadth-first
search over canonical elements closes within a cap the result is a Mealy
automaton (transition delta(q, i) = q_i, output lambda(q, i) = sigma_q(i)).
`CapExceeded` is an ordinary result, not an error: some families are not
finite-state and the search must never loop unboundedly.

Word convention: the level-1 letter is the leftmost letter of a word;
sigma acts on it and the state at that letter acts on the suffix.

Decompositions are pure and memoized per instance, in four dicts that
live as long as the instance.  `_decomp_cache` maps g to its
decomposition.  `_intern_pool` keeps one shared object per element value:
a decomposition passes g and each of its states through it, so equal
states are the same object and a later lookup hits on identity before
`__eq__` runs.  `_prule_cache` maps a verified pair (a, b) to the depth
it was verified to.  `_product_cache` maps an operand pair (a_i, b_j) of
`product_rule_check` to the interned state its product was verified
against, so a known product is not recomputed; the comparison at each
node still runs.  Breadth-first searches visit canonical elements in
discovery order, so all outputs are deterministic.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property


class ContractViolation(RuntimeError):
    """An instance broke the transversal/membership/endomorphism contract."""


class NotInH(ValueError):
    """The endomorphism was applied outside its domain subgroup."""


class Perm:
    """A permutation of {0, ..., m-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection: {self.images}")

    def __call__(self, i: int) -> int:
        return self.images[i]

    def then(self, other: "Perm") -> "Perm":
        """The composite acting as self first, then other."""
        return Perm(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Perm":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Perm(out)

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    @staticmethod
    def identity(m: int) -> "Perm":
        return Perm(range(m))

    def cycles(self) -> str:
        seen = [False] * len(self.images)
        parts = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) if parts else "()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm{self.images}"


@dataclass(frozen=True)
class WreathDecomp:
    """A level permutation together with the m subtree states."""

    perm: Perm
    states: tuple


class Instance(ABC):
    """Capability set every concrete family provides to the engine.

    Elements must be immutable, hashable, and equal exactly when they are
    equal in the group (canonical forms).  The transversal is ordered with
    t_0 in H (all families use t_0 = identity).

    A family must provide the abstract members: `degree`,
    `_build_transversal`, `identity`, `multiply`, `invert`, `h_member`,
    `endo_f`, `generators` and `render`.  `endo_f` is the partial map f:
    it raises `NotInH` off H, so it is the one membership test per letter
    of the generic decomposition; `h_member` serves the exhaustive coset
    search and the validators.  A family may override `coset_index` with a
    closed form (`coset_index_exhaustive` stays the oracle); `letters`,
    the level permutation images and states of g that `decompose` asks
    for (the default walks the transversal with `coset_index`, a product
    by the stored t_j^{-1} and `endo_f`; every shipped family overrides it
    with a closed form that makes no group product, and the default stays
    its oracle); `random_element` with a sampler of its own (the default
    is a random generator word); and `describe`.
    The verify suites also need `random_h_element`, a random element of H.
    """

    family: str = "abstract"

    @property
    @abstractmethod
    def degree(self) -> int:
        """The tree degree m = [G : H]."""

    @abstractmethod
    def _build_transversal(self):
        """The ordered right transversal t_0, ..., t_{m-1}."""

    @cached_property
    def transversal(self) -> tuple:
        ts = tuple(self._build_transversal())
        if len(ts) != self.degree:
            raise ContractViolation("transversal size disagrees with the degree")
        return ts

    @abstractmethod
    def identity(self):
        ...

    @abstractmethod
    def multiply(self, a, b):
        ...

    @abstractmethod
    def invert(self, a):
        ...

    @abstractmethod
    def h_member(self, g) -> bool:
        ...

    @abstractmethod
    def endo_f(self, g):
        """The virtual endomorphism f(g); raises NotInH unless h_member(g)."""

    @abstractmethod
    def generators(self) -> dict:
        """Named generators (always including "e" for the identity)."""

    @abstractmethod
    def render(self, g) -> str:
        """Deterministic canonical rendering of an element."""

    def describe(self) -> dict:
        """Summary metadata used by the CLI."""
        return {"family": self.family, "degree": self.degree}

    @cached_property
    def transversal_inverses(self) -> tuple:
        return tuple(self.invert(t) for t in self.transversal)

    def coset_hits(self, g):
        """The indices j with g * t_j^{-1} in H, in order: for a valid
        transversal exactly one."""
        for j, tinv in enumerate(self.transversal_inverses):
            if self.h_member(self.multiply(g, tinv)):
                yield j

    def coset_index_exhaustive(self, g) -> int:
        """Index j with g in H t_j, the first of `coset_hits`.

        This is the reference implementation; families may override
        `coset_index` with a closed form, and this remains the oracle.
        """
        j = next(self.coset_hits(g), None)
        if j is None:
            raise ContractViolation("element lies in no transversal coset")
        return j

    def coset_index(self, g) -> int:
        return self.coset_index_exhaustive(g)

    def letters(self, g) -> tuple:
        """(images, states) of g: for each transversal letter t_i, the
        index j of the coset holding t_i * g and the state
        f(t_i * g * t_j^{-1}).  Raises ContractViolation when a cofactor
        lies outside H."""
        images = []
        states = []
        for i, t in enumerate(self.transversal):
            tg = self.multiply(t, g)
            j = self.coset_index(tg)
            try:
                states.append(self.endo_f(self.multiply(tg, self.transversal_inverses[j])))
            except NotInH:
                raise ContractViolation(f"cofactor at letter {i} fails subgroup membership") from None
            images.append(j)
        return images, states

    def random_word(self, rng, length: int):
        """A product of `length` factors, each drawn by rng.choice from the
        distinct non-identity generators in `generators()` order and then
        inverted when rng.randrange(2) is 1."""
        gens = list(dict.fromkeys(g for name, g in self.generators().items() if name != "e"))
        out = self.identity()
        for _ in range(length):
            g = rng.choice(gens)
            if rng.randrange(2):
                g = self.invert(g)
            out = self.multiply(out, g)
        return out

    def random_element(self, rng, length: int = 5):
        return self.random_word(rng, length)

    def elem_pow(self, g, k: int):
        """g^k by left-to-right binary powering: for k != 0, one squaring
        per bit after the top one and one product by g per further set
        bit."""
        if k < 0:
            g = self.invert(g)
            k = -k
        if not k:
            return self.identity()
        out = g
        for bit in bin(k)[3:]:
            out = self.multiply(out, out)
            if bit == "1":
                out = self.multiply(out, g)
        return out

    @cached_property
    def _decomp_cache(self) -> dict:
        return {}

    @cached_property
    def _prule_cache(self) -> dict:
        return {}

    @cached_property
    def _intern_pool(self) -> dict:
        return {}

    @cached_property
    def _product_cache(self) -> dict:
        return {}


def decompose(inst: Instance, g) -> WreathDecomp:
    """Compute (and memoize) the wreath decomposition of g."""
    cache = inst._decomp_cache
    hit = cache.get(g)
    if hit is not None:
        return hit
    images, states = inst.letters(g)
    try:
        perm = Perm(images)
    except ValueError as exc:
        raise ContractViolation(str(exc)) from exc
    intern = inst._intern_pool.setdefault
    dec = WreathDecomp(perm, tuple([intern(s, s) for s in states]))
    cache[intern(g, g)] = dec
    return dec


def act_on_word(inst: Instance, g, word) -> tuple:
    """Apply the tree action of g to a word over {0, ..., m-1}."""
    out = []
    cur = g
    for letter in word:
        dec = decompose(inst, cur)
        out.append(dec.perm(letter))
        cur = dec.states[letter]
    return tuple(out)


def portrait(inst: Instance, g, depth: int):
    """Nested-array portrait: [images] at the cut depth, else
    [images, [children...]]."""
    if depth < 1:
        raise ValueError("portrait depth must be >= 1")
    dec = decompose(inst, g)
    node = [list(dec.perm.images)]
    if depth > 1:
        node.append([portrait(inst, s, depth - 1) for s in dec.states])
    return node


def product_rule_check(inst: Instance, g, h, depth: int) -> bool:
    """Verify that decompositions multiply coordinatewise, recursively.

    Verified pairs are remembered on the instance (successes only), so
    repeated subpairs across many random checks are not re-verified.  A
    state product a_i * b_j already verified at some node is read from the
    product map instead of recomputed, and compared all the same.
    """
    m = inst.degree
    memo: dict = inst._prule_cache
    products: dict = inst._product_cache

    def rec(a, b, ab, d) -> bool:
        # ab is the already-computed product a*b
        if memo.get((a, b), 0) >= d:
            return True
        da = decompose(inst, a)
        db = decompose(inst, b)
        dab = decompose(inst, ab)
        if dab.perm != da.perm.then(db.perm):
            return False
        triples = []
        for i in range(m):
            ai = da.states[i]
            bi = db.states[da.perm(i)]
            abi = dab.states[i]
            expected = products.get((ai, bi))
            if expected is None:
                expected = inst.multiply(ai, bi)
            if abi != expected:
                return False
            # the interned state, so the map holds no element of its own
            products[(ai, bi)] = abi
            triples.append((ai, bi, abi))
        memo[(a, b)] = d
        if d > 1:
            for a2, b2, ab2 in triples:
                if not rec(a2, b2, ab2, d - 1):
                    return False
        return True

    return rec(g, h, inst.multiply(g, h), depth)


@dataclass(frozen=True)
class CapExceeded:
    """State search left the cap before closing; a value, not a failure."""

    visited: int
    frontier: int


class MealyAutomaton:
    """A complete deterministic transducer over the alphabet {0, ..., m-1}
    whose per-state output maps are permutations."""

    __slots__ = ("degree", "initial", "state_labels", "transitions", "outputs", "elements")

    def __init__(self, degree, initial, state_labels, transitions, outputs, elements=None):
        self.degree = degree
        self.initial = initial
        self.state_labels = tuple(state_labels)
        self.transitions = tuple(tuple(row) for row in transitions)
        self.outputs = tuple(tuple(row) for row in outputs)
        self.elements = elements
        n = len(self.state_labels)
        if not (len(self.transitions) == len(self.outputs) == n):
            raise ValueError("ragged automaton tables")
        for row_t, row_o in zip(self.transitions, self.outputs):
            if len(row_t) != degree or len(row_o) != degree:
                raise ValueError("alphabet size mismatch")
            if any(not 0 <= t < n for t in row_t):
                raise ValueError("transition target out of range")
            if sorted(row_o) != list(range(degree)):
                raise ValueError("state output map is not a permutation")

    def __len__(self) -> int:
        return len(self.state_labels)

    def simulate(self, word) -> tuple:
        state = self.initial
        out = []
        for letter in word:
            out.append(self.outputs[state][letter])
            state = self.transitions[state][letter]
        return tuple(out)

    def to_json_bytes(self) -> bytes:
        obj = {
            "degree": self.degree,
            "initial": self.initial,
            "states": list(self.state_labels),
            "transitions": [list(r) for r in self.transitions],
            "outputs": [list(r) for r in self.outputs],
        }
        return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()

    @staticmethod
    def from_json_bytes(data: bytes) -> "MealyAutomaton":
        obj = json.loads(data.decode())
        return MealyAutomaton(
            obj["degree"],
            obj["initial"],
            obj["states"],
            obj["transitions"],
            obj["outputs"],
        )

    def to_dot_bytes(self) -> bytes:
        def quote(s: str) -> str:
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph mealy {", "  rankdir=LR;", "  node [shape=circle];"]
        for i, label in enumerate(self.state_labels):
            shape = ' shape=doublecircle' if i == self.initial else ""
            lines.append(f"  q{i} [label={quote(label)}{shape}];")
        for i in range(len(self.state_labels)):
            for a in range(self.degree):
                lines.append(
                    f"  q{i} -> q{self.transitions[i][a]} "
                    f'[label="{a}|{self.outputs[i][a]}"];'
                )
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()


def states_bfs(inst: Instance, g, cap: int):
    """Breadth-first closure of the state set of g.

    Returns the Mealy automaton whose states are exactly the iterated
    states of g (in discovery order, g first) when at most `cap` states
    are needed, else CapExceeded.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    index = {g: 0}
    order = [g]
    transitions = []
    outputs = []
    qi = 0
    while qi < len(order):
        dec = decompose(inst, order[qi])
        row_t = []
        for i, s in enumerate(dec.states):
            j = index.get(s)
            if j is None:
                if len(order) >= cap:
                    return CapExceeded(visited=len(order), frontier=len(order) - qi)
                j = len(order)
                index[s] = j
                order.append(s)
            row_t.append(j)
        transitions.append(row_t)
        outputs.append(dec.perm.images)
        qi += 1
    return MealyAutomaton(
        inst.degree,
        0,
        tuple(inst.render(e) for e in order),
        transitions,
        outputs,
        elements=tuple(order),
    )


def states_within(inst: Instance, g, cap: int, member) -> bool:
    """Whether the state set of g closes within `cap` states, every state
    satisfying the predicate `member`."""
    res = states_bfs(inst, g, cap)
    return not isinstance(res, CapExceeded) and all(member(e) for e in res.elements)


def transversal_validate(inst: Instance, sample=()) -> bool:
    """Check that t_0 lies in the subgroup, that each t_i lies in exactly
    the coset H t_i (so the cosets are pairwise distinct) and has
    coset_index i, and that each sample element lies in exactly the coset
    its coset_index names."""
    ts = inst.transversal
    if len(ts) != inst.degree or not inst.h_member(ts[0]):
        return False
    for i, g in enumerate(ts + tuple(sample)):
        j = inst.coset_index(g)
        if (i < len(ts) and j != i) or list(inst.coset_hits(g)) != [j]:
            return False
    return True


def transitivity_check(inst: Instance, gens) -> bool:
    """Whether the level permutations of the generators act transitively."""
    perms = [decompose(inst, g).perm for g in gens]
    m = inst.degree
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for perm in perms:
            for j in (perm(i), perm.inverse()(i)):
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
    return len(seen) == m


def faithfulness_probe(inst: Instance, g, max_depth: int):
    """Least depth <= max_depth at which g moves some word, else None.

    None is inconclusive: the probe never claims the action is
    unfaithful.  Raises ValueError on the identity element.
    """
    if g == inst.identity():
        raise ValueError("faithfulness probe requires a nontrivial element")
    seen = {g}
    level = [g]
    for depth in range(1, max_depth + 1):
        nxt = []
        for h in level:
            dec = decompose(inst, h)
            if not dec.perm.is_identity:
                return depth
            for s in dec.states:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        if not nxt:
            return None
        level = nxt
    return None
