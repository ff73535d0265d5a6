"""How a polynomial is stored is ring.py's decision alone.

Every module under src/selfsim other than ring.py goes through the public
polynomial interface (see the ring module docstring), so a second
representation can replace the coefficient tuple without touching them.
This parses each of those modules and fails on any read of the `.coeffs`
storage, on the trusted constructor `DensePoly._raw` and on the
reduce-and-trim helper `_canon`, and on any use of the packed F_2[x]
storage: its `._bits` attribute, its constructor `DensePoly._packed`, the
packing helpers `_pack` and `_unpack`, and `_coeff_tuple`.  There is no
allowlist.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "selfsim"
MODULES = sorted(path for path in SRC.rglob("*.py") if path != SRC / "ring.py")


# private names of ring.py that no other module may use in any form
HELPERS = ("_canon", "_pack", "_unpack")
STORAGE = {"coeffs": ".coeffs", "_bits": "._bits", "_coeff_tuple": "._coeff_tuple"}
CONSTRUCTORS = ("_raw", "_packed")


def violations(tree):
    """(line, text) of every use of the polynomial storage under the node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in STORAGE:
                yield node.lineno, STORAGE[node.attr]
            elif node.attr in CONSTRUCTORS and isinstance(node.value, ast.Name) and node.value.id == "DensePoly":
                yield node.lineno, f"DensePoly.{node.attr}"
            elif node.attr in HELPERS:
                yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in HELPERS:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in HELPERS:
            yield node.lineno, node.name


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_no_module_outside_ring_reads_polynomial_storage(path):
    assert list(violations(ast.parse(path.read_text()))) == []


def test_the_guard_sees_each_form():
    source = "from .ring import _canon\nf.coeffs\nDensePoly._raw(2, ())\n_canon(2, [])\nring._canon\n"
    assert [text for _, text in sorted(violations(ast.parse(source)))] == [
        "_canon", ".coeffs", "DensePoly._raw", "_canon", "_canon",
    ]


def test_the_guard_sees_the_packed_storage():
    source = (
        "from .ring import _pack, _unpack\nf._bits\nDensePoly._packed(5)\n"
        "_pack([1])\nring._unpack(5)\ng._coeff_tuple()\n"
    )
    assert [text for _, text in sorted(violations(ast.parse(source)))] == [
        "_pack", "_unpack", "._bits", "DensePoly._packed", "_pack", "_unpack", "._coeff_tuple",
    ]
