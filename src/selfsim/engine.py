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

Elements are immutable values that compare and hash by value; Borel's
is its `TriMat`: two elements of one instance are equal exactly when
their fields are.  No engine map mixes elements with tuples.
`_decomp_cache` and `_intern_pool` hold elements only, `_prule_cache`
and `_product_cache` pairs of elements only, and `_perm_pool` image
tuples only.

Decompositions are pure and memoized per instance, in five dicts that
live as long as the instance.  `_decomp_cache` maps g to its
decomposition, one flat tuple (perm, s_0, ..., s_{m-1}).  A level
permutation sigma is its image tuple
(sigma(0), ..., sigma(m-1)), and `_perm_pool` maps an image tuple to the
one pooled tuple that every decomposition with those level images holds
as its `perm`; a tuple is checked to be a bijection on first sight, and
one that is not is never pooled, so it raises each time.  `_intern_pool`
keeps one shared object per element value, as both key and value: a
decomposition passes g and each of its states through it, so equal
states are the same object and a later lookup hits on identity before
any field is compared.  An element enters the pool as `share(x)`, which
a family overrides to rebuild x from ring values pooled once per
instance (its `_value_pool`, which a fraction enters through
`ring._LocalFraction.pooled`), so the insides of stored elements are one
object per value too; `share` runs on pool misses only, and
temporaries never pay for it.  `_product_cache` maps an operand pair
(a_i, b_j) of `product_rule_check` to the interned state its product was
verified against, written once, so a known product is not recomputed;
the comparison at each node still runs.  `_prule_cache` maps a verified
pair (a, b) to the depth it was verified to, keyed by the tuple that
the parent node built for the product map, so the two maps share one
key object per pair.  Breadth-first
searches visit canonical elements in discovery order, so all outputs
are deterministic.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections import namedtuple
from functools import cached_property
from operator import itemgetter

from .ring import parse_json


class ContractViolation(RuntimeError):
    """An instance broke the transversal/membership/endomorphism contract."""


class NotInH(ValueError):
    """The endomorphism was applied outside its domain subgroup."""


class WreathDecomp(tuple):
    """The flat tuple (perm, s_0, ..., s_{m-1}): a level permutation, the
    pooled image tuple (sigma(0), ..., sigma(m-1)), then the m subtree
    states.  Built as WreathDecomp(perm, states); `perm` is item 0 and
    `states` the rest, a new tuple on each read; the per-node walkers
    read `dec[0]` and `dec[1:]` directly."""

    __slots__ = ()

    def __new__(cls, perm, states):
        return tuple.__new__(cls, (perm, *states))

    perm = property(itemgetter(0))

    @property
    def states(self) -> tuple:
        return self[1:]


class Instance(ABC):
    """Capability set every concrete family provides to the engine.

    Elements are immutable values that compare and hash by value; Borel's
    is its `TriMat`.  They are equal exactly when they are equal in the
    group, and the engine's maps never mix them with tuples.  The
    transversal is ordered with t_0 in H (all families use
    t_0 = identity).

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
    is a random generator word); `share`, the stored form of an element;
    and `describe`.
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

    def share(self, x):
        """x as the memos store it: an equal element, equally hashed and
        rendered, whose ring values are shared with the other stored
        elements.  `decompose` calls it once per element value, on an
        intern pool miss; the default stores x itself."""
        return x

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

    @cached_property
    def _word_factors(self) -> tuple:
        """(g, g^{-1}) for each distinct non-identity generator g, in
        `generators()` order."""
        gens = dict.fromkeys(g for name, g in self.generators().items() if name != "e")
        return tuple((g, self.invert(g)) for g in gens)

    def random_word(self, rng, length: int):
        """A product of `length` factors, each drawn by rng.choice from the
        distinct non-identity generators in `generators()` order and then
        inverted when rng.randrange(2) is 1."""
        pairs = self._word_factors
        out = self.identity()
        for _ in range(length):
            out = self.multiply(out, rng.choice(pairs)[rng.randrange(2)])
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

    @cached_property
    def _perm_pool(self) -> dict:
        return {}

    @cached_property
    def _value_pool(self) -> dict:
        """The family's pool of ring values, one object per value, that
        `share` rebuilds stored elements from."""
        return {}


def decompose(inst: Instance, g) -> WreathDecomp:
    """Compute (and memoize) the wreath decomposition of g."""
    cache = inst._decomp_cache
    hit = cache.get(g)
    if hit is not None:
        return hit
    images, states = inst.letters(g)
    images = tuple(images)
    perms = inst._perm_pool
    perm = perms.get(images)
    if perm is None:
        if sorted(images) != list(range(len(images))):
            raise ContractViolation(f"not a bijection: {images}")
        perm = perms[images] = images
    pool = inst._intern_pool
    dec = WreathDecomp(perm, [pool.get(s) or _interned(inst, pool, s) for s in states])
    cache[pool.get(g) or _interned(inst, pool, g)] = dec
    return dec


def _interned(inst: Instance, pool: dict, x):
    """The shared form of x, new to the intern pool, stored as its own key
    so that the pool keeps no unshared original alive."""
    x = inst.share(x)
    pool[x] = x
    return x


def act_on_word(inst: Instance, g, word) -> tuple:
    """Apply the tree action of g to a word over {0, ..., m-1}."""
    out = []
    cur = g
    for letter in word:
        dec = decompose(inst, cur)
        out.append(dec[0][letter])
        cur = dec[letter + 1]
    return tuple(out)


def portrait(inst: Instance, g, depth: int):
    """Nested-array portrait: [images] at the cut depth, else
    [images, [children...]]."""
    if depth < 1:
        raise ValueError("portrait depth must be >= 1")
    dec = decompose(inst, g)
    node = [list(dec[0])]
    if depth > 1:
        node.append([portrait(inst, s, depth - 1) for s in dec[1:]])
    return node


def product_rule_check(inst: Instance, g, h, depth: int) -> bool:
    """Verify that decompositions multiply coordinatewise, recursively.

    Verified pairs are remembered on the instance (successes only), so
    repeated subpairs across many random checks are not re-verified.  A
    state product a_i * b_j already verified at some node is read from the
    product map instead of recomputed, and compared all the same.
    """
    memo: dict = inst._prule_cache
    products: dict = inst._product_cache

    def rec(pair, ab, d) -> bool:
        # pair is (a, b), below the root the very tuple the parent built
        # as its product-map key; ab is the already-computed product a*b
        if memo.get(pair, 0) >= d:
            return True
        a_dec = decompose(inst, pair[0])
        b_dec = decompose(inst, pair[1])
        ab_dec = decompose(inst, ab)
        a_perm = a_dec[0]
        # sigma_ab must be sigma_a then sigma_b
        if ab_dec[0] != tuple([b_dec[0][i] for i in a_perm]):
            return False
        pairs = []
        for i, j in enumerate(a_perm, 1):
            key = (a_dec[i], b_dec[j + 1])
            abi = ab_dec[i]
            expected = products.get(key)
            if expected is None:
                if abi != inst.multiply(*key):
                    return False
                # the interned state, so the map holds no element of its own
                products[key] = abi
            elif abi != expected:
                return False
            pairs.append(key)
        memo[pair] = d
        if d > 1:
            for i, key in enumerate(pairs, 1):
                if not rec(key, ab_dec[i], d - 1):
                    return False
        return True

    return rec((g, h), inst.multiply(g, h), depth)


class CapExceeded(namedtuple("CapExceeded", "visited frontier")):
    """State search left the cap before closing; a value, not a failure."""

    __slots__ = ()


# the keys of an automaton document, in constructor order
AUTOMATON_KEYS = ("degree", "initial", "states", "transitions", "outputs")


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
        for key, value in (("degree", degree), ("initial", initial)):
            if type(value) is not int:
                raise ValueError(f"automaton {key} must be an integer")
        if any(type(label) is not str for label in self.state_labels):
            raise ValueError("automaton state labels must be strings")
        if any(type(v) is not int for row in self.transitions + self.outputs for v in row):
            raise ValueError("automaton table entries must be integers")
        if degree < 1:
            raise ValueError("automaton degree must be >= 1")
        if not 0 <= initial < n:
            raise ValueError(f"initial state {initial} is not one of the {n} states")
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
        """The automaton of a `to_json_bytes` document; ValueError on
        anything else."""
        obj = parse_json(data.decode())
        if not isinstance(obj, dict) or obj.keys() != set(AUTOMATON_KEYS):
            raise ValueError("an automaton is a JSON object with exactly the keys " + ", ".join(AUTOMATON_KEYS))
        tables = obj["transitions"], obj["outputs"]
        if not isinstance(obj["states"], list) or not all(
            isinstance(t, list) and all(isinstance(row, list) for row in t) for t in tables
        ):
            raise ValueError("automaton states, tables and table rows must be JSON lists")
        return MealyAutomaton(*(obj[key] for key in AUTOMATON_KEYS))

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
        for s in dec[1:]:
            j = index.get(s)
            if j is None:
                if len(order) >= cap:
                    return CapExceeded(visited=len(order), frontier=len(order) - qi)
                j = len(order)
                index[s] = j
                order.append(s)
            row_t.append(j)
        transitions.append(row_t)
        outputs.append(dec[0])
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
    its coset_index names and has g * invert(g) equal to the identity."""
    ts, sample = inst.transversal, tuple(sample)
    if len(ts) != inst.degree or not inst.h_member(ts[0]):
        return False
    for i, g in enumerate(ts + sample):
        j = inst.coset_index(g)
        if (i < len(ts) and j != i) or list(inst.coset_hits(g)) != [j]:
            return False
    return all(inst.multiply(g, inst.invert(g)) == inst.identity() for g in sample)


def transitivity_check(inst: Instance, gens) -> bool:
    """Whether the level permutations of the generators act transitively.

    The search follows forward images only: a permutation of a finite set
    has its inverse among its powers, so the forward closure of 0 is
    already its orbit under the generated group."""
    perms = [decompose(inst, g).perm for g in gens]
    m = inst.degree
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for perm in perms:
            j = perm[i]
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
    fixed = tuple(range(inst.degree))
    seen = {g}
    level = [g]
    for depth in range(1, max_depth + 1):
        nxt = []
        for h in level:
            dec = decompose(inst, h)
            if dec[0] != fixed:
                return depth
            for s in dec[1:]:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        if not nxt:
            return None
        level = nxt
    return None
