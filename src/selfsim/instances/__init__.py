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

from pathlib import Path

from ..ring import DensePoly, check_keys, is_prime, parse_json


class InstanceConfigError(ValueError):
    """A configuration violates the family hypotheses or the schema."""


# The largest degree (transversal size) an instance may have.  Every
# family's degree is at least p, so p is checked against it first; it also
# bounds the wreath rank d, the length of every element's exponent vectors.
MAX_DEGREE = 4096

# The largest affine dimension n: it bounds the O(n^3) polynomial products
# of an affine literal's determinant and of every matrix inverse.
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


def load_config(source):
    """Build an instance from a config dict or a file path.

    Schema: {"family": "borel"|"affine"|"lamplighter"|"wreath", "p": int,
    "m"|"n"|"d": int, "polys": [[coeffs]...], "g": [coeffs],
    "localized": bool}, with only the keys in CONFIG_KEYS for the family,
    and "g" only with "localized": true.  The degree, a polynomial's degree
    and the affine n are bounded by MAX_DEGREE, ring.MAX_POLY_DEGREE and
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
            return DensePoly.from_json(p, raw)
        except ValueError as exc:
            raise InstanceConfigError(f"config key '{key}': {exc}") from None

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
        inst = WreathInstance(p, d, g=gpoly if localized else None)
        # after the constructor, whose rank check comes first
        if localized and gpoly is None:
            raise InstanceConfigError("localized instance requires a polynomial g")
        if gpoly is not None and not localized:
            raise InstanceConfigError("wreath config key 'g' needs \"localized\": true")
    if inst.degree > MAX_DEGREE:
        raise InstanceConfigError(
            f"degree {inst.degree} exceeds the enumeration bound {MAX_DEGREE}"
        )
    return inst
