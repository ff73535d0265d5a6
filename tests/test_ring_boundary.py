"""How a polynomial is stored is ring.py's decision alone.

Every module under src/selfsim other than ring.py goes through the public
polynomial interface (see the ring module docstring), so a second
representation can replace the coefficient tuple without touching them.
This parses each of those modules and fails on any read of the `.coeffs`
storage, on the trusted constructor `DensePoly._raw` and on the
reduce-and-trim helper `_canon`.  There is no allowlist.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "selfsim"
MODULES = sorted(path for path in SRC.rglob("*.py") if path != SRC / "ring.py")


def violations(tree):
    """(line, text) of every use of the polynomial storage under the node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "coeffs":
                yield node.lineno, ".coeffs"
            elif node.attr == "_raw" and isinstance(node.value, ast.Name) and node.value.id == "DensePoly":
                yield node.lineno, "DensePoly._raw"
            elif node.attr == "_canon":
                yield node.lineno, "_canon"
        elif isinstance(node, ast.Name) and node.id == "_canon":
            yield node.lineno, "_canon"
        elif isinstance(node, ast.alias) and node.name == "_canon":
            yield node.lineno, "_canon"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_no_module_outside_ring_reads_polynomial_storage(path):
    assert list(violations(ast.parse(path.read_text()))) == []


def test_the_guard_sees_each_form():
    source = "from .ring import _canon\nf.coeffs\nDensePoly._raw(2, ())\n_canon(2, [])\nring._canon\n"
    assert [text for _, text in sorted(violations(ast.parse(source)))] == [
        "_canon", ".coeffs", "DensePoly._raw", "_canon", "_canon",
    ]
