"""A test module that skips without hypothesis holds drawn tests only.

A module that calls `pytest.importorskip("hypothesis")` at module level is
skipped whole on a checkout without hypothesis, so a test there that draws
nothing (has no `@given`) would not run at all.  Such a test belongs in a
module without the skip, as the fixed cases of
tests/test_ring_properties.py live in tests/test_ring_cancel.py.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def skips_without_hypothesis(tree) -> bool:
    """The module calls pytest.importorskip("hypothesis") at module level."""
    for node in tree.body:
        call = getattr(node, "value", None)
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "importorskip"
            and any(isinstance(a, ast.Constant) and a.value == "hypothesis" for a in call.args)
        ):
            return True
    return False


def is_given(decorator) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", None)) == "given"


def test_modules_that_skip_without_hypothesis_define_only_drawn_tests():
    skipping, undrawn = [], []
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        if not skips_without_hypothesis(tree):
            continue
        skipping.append(path.name)
        undrawn += [
            f"{path.name}::{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test")
            and not any(map(is_given, node.decorator_list))
        ]
    assert "test_ring_properties.py" in skipping
    assert undrawn == [], "tests that never run without hypothesis: " + ", ".join(undrawn)
