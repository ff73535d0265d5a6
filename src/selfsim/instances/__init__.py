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

from ..ring import DensePoly


class InstanceConfigError(ValueError):
    """A configuration violates the family hypotheses or the schema."""


def load_config(source):
    """Build an instance from a config dict, JSON text, or file path.

    Schema: {"family": "borel"|"affine"|"lamplighter"|"wreath", "p": int,
    "m"|"n"|"d": int, "polys": [[coeffs]...], "g": [coeffs],
    "localized": bool}.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceConfigError(f"bad JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise InstanceConfigError("config must be a JSON object")
    family = data.get("family")
    p = data.get("p")
    if not isinstance(p, int):
        raise InstanceConfigError("config key 'p' must be an integer")

    def poly(raw, key):
        # JSON integers only: no strings, floats or booleans
        if not isinstance(raw, list) or not all(type(c) is int for c in raw):
            raise InstanceConfigError(f"coefficients in config key '{key}' must be a list of integers")
        return DensePoly(p, raw)

    def polys(key="polys"):
        raw = data.get(key)
        if not isinstance(raw, list) or not all(isinstance(f, list) for f in raw):
            raise InstanceConfigError(f"config key '{key}' must be a list of coefficient lists")
        return [poly(f, key) for f in raw]

    if family == "borel":
        from .borel import BorelInstance

        m = data.get("m")
        if not isinstance(m, int):
            raise InstanceConfigError("borel config requires integer 'm'")
        return BorelInstance(p, m, polys())
    if family == "affine":
        from .affine import AffineInstance

        n = data.get("n")
        if not isinstance(n, int):
            raise InstanceConfigError("affine config requires integer 'n'")
        return AffineInstance(p, n)
    if family == "lamplighter":
        from .lamplighter import LampInstance

        ps = polys()
        n = data.get("n", len(ps))
        if n != len(ps):
            raise InstanceConfigError("'n' disagrees with the number of basis polynomials")
        return LampInstance(p, ps)
    if family == "wreath":
        from .wreath import WreathInstance

        d = data.get("d")
        if not isinstance(d, int):
            raise InstanceConfigError("wreath config requires integer 'd'")
        g = data.get("g")
        gpoly = poly(g, "g") if g is not None else None
        return WreathInstance(p, d, g=gpoly, localized=bool(data.get("localized", False)))
    raise InstanceConfigError(f"unknown family: {family!r}")
