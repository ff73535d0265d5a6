"""Concrete families realizing the engine's instance contract.

Each family fixes a group G, a finite-index subgroup H, an ordered right
transversal with t_0 = identity, and the virtual endomorphism f on H:

* ``borel`` -- center quotients of triangular matrix groups over a
  localized ring, f dividing the entry at (i, j) by (x-1)^(j-i);
* ``affine`` -- polynomial affine groups V ⋊ B over F_p[x], f conjugating
  by the companion-style matrix A;
* ``lamplighter`` -- metabelian groups u^r q with r in the localized ring,
  f dividing the exponent by x-1;
* ``wreath`` -- C_p wr Z^d and its localization at powers of g(x_i).

Instance configurations are JSON objects; see ``load_config``.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..ring import DensePoly, check_keys, is_prime


class InstanceConfigError(ValueError):
    """A configuration violates the family hypotheses or the schema."""


# The largest degree (transversal size) an instance may have.  Every
# family's degree is at least p, so p is checked against it first; it also
# bounds the wreath rank d, the length of every element's exponent vectors.
MAX_DEGREE = 4096

# The largest degree of a basis polynomial or of the wreath g, checked
# before any irreducibility test (Ben-Or's costs about deg^3 log p).
MAX_POLY_DEGREE = 64

# The largest affine dimension n: an affine literal's matrix determinant
# is a Laplace expansion of n! terms.
MAX_AFFINE_DIM = 8

# The largest length of an element expression, the sum of |exponent| over
# its terms; it also bounds every exponent in a Borel literal.
MAX_WORD_LENGTH = 256

# The keys each family's config takes besides "family" and "p".
CONFIG_KEYS = {
    "borel": {"m", "polys"},
    "affine": {"n"},
    "lamplighter": {"polys", "n"},
    "wreath": {"d", "g", "localized"},
}


def _unique_keys(pairs) -> dict:
    """A JSON object from its key-value pairs, rejecting a repeated key
    (json.loads would keep its last value)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def parse_json(text: str):
    """json.loads, with a repeated object key or nesting past the
    interpreter's recursion limit a ValueError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("nested too deeply") from None


def load_config(source):
    """Build an instance from a config dict or a file path.

    Schema: {"family": "borel"|"affine"|"lamplighter"|"wreath", "p": int,
    "m"|"n"|"d": int, "polys": [[coeffs]...], "g": [coeffs],
    "localized": bool}, with only the keys in CONFIG_KEYS for the family,
    and "g" only with "localized": true.  The degree, a polynomial's degree
    and the affine n are bounded by MAX_DEGREE, MAX_POLY_DEGREE and
    MAX_AFFINE_DIM.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
        try:
            data = parse_json(text)
        except ValueError as exc:
            raise InstanceConfigError(f"bad JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise InstanceConfigError("config must be a JSON object")

    def integer(key, message):
        # JSON integers only: booleans are ints to Python but not to JSON
        value = data.get(key)
        if type(value) is not int:
            raise InstanceConfigError(message)
        return value

    family = data.get("family")
    if not isinstance(family, str) or family not in CONFIG_KEYS:
        raise InstanceConfigError(f"unknown family: {family!r}")
    check_keys(data, CONFIG_KEYS[family] | {"family", "p"}, f"the {family} config", InstanceConfigError)
    p = integer("p", "config key 'p' must be an integer")
    if p > MAX_DEGREE:
        raise InstanceConfigError(f"p = {p} exceeds the degree bound {MAX_DEGREE}")
    if not is_prime(p):
        raise InstanceConfigError(f"p = {p} is not prime")

    def poly(raw, key):
        try:
            f = DensePoly.from_json(p, raw)
        except ValueError:
            raise InstanceConfigError(f"coefficients in config key '{key}' must be a list of integers") from None
        if f.degree > MAX_POLY_DEGREE:
            raise InstanceConfigError(
                f"a polynomial in config key '{key}' has degree {f.degree} > {MAX_POLY_DEGREE}"
            )
        return f

    def polys(key="polys"):
        raw = data.get(key)
        if not isinstance(raw, list) or not all(isinstance(f, list) for f in raw):
            raise InstanceConfigError(f"config key '{key}' must be a list of coefficient lists")
        return [poly(f, key) for f in raw]

    if family == "borel":
        from .borel import BorelInstance

        m = integer("m", "borel config requires integer 'm'")
        # degree p^l with l = (m^3 - m) / 6; p >= 2 puts any l > 12 past the bound
        l = (m**3 - m) // 6
        if l > 12 or p**max(l, 0) > MAX_DEGREE:
            raise InstanceConfigError(f"degree {p}^{l} exceeds the enumeration bound {MAX_DEGREE}")
        inst = BorelInstance(p, m, polys())
    elif family == "affine":
        from .affine import AffineInstance

        n = integer("n", "affine config requires integer 'n'")
        if n > MAX_AFFINE_DIM:
            raise InstanceConfigError(f"dimension n = {n} exceeds the bound {MAX_AFFINE_DIM}")
        inst = AffineInstance(p, n)
    elif family == "lamplighter":
        from .lamplighter import LampInstance

        ps = polys()
        if "n" in data and integer("n", "lamplighter config key 'n' must be an integer") != len(ps):
            raise InstanceConfigError("'n' disagrees with the number of basis polynomials")
        inst = LampInstance(p, ps)
    else:
        from .wreath import WreathInstance

        d = integer("d", "wreath config requires integer 'd'")
        if d > MAX_DEGREE:
            raise InstanceConfigError(f"rank d = {d} exceeds the bound {MAX_DEGREE}")
        localized = data.get("localized", False)
        if type(localized) is not bool:
            raise InstanceConfigError("wreath config key 'localized' must be true or false")
        gpoly = poly(data["g"], "g") if "g" in data else None
        inst = WreathInstance(p, d, g=gpoly, localized=localized)
    if inst.degree > MAX_DEGREE:
        raise InstanceConfigError(
            f"degree {inst.degree} exceeds the enumeration bound {MAX_DEGREE}"
        )
    return inst
