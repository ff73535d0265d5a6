"""The names the benchmark's traced run binds must exist in selfsim.

perfbench/child.py wraps functions and methods by name before running a
job; a rename or deletion there would only show up as a broken benchmark.
This loads its name tables without running it and resolves each one.
"""

import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = load_child()


def selfsim_module(name):
    return importlib.import_module(f"selfsim.{name}")


@pytest.mark.parametrize("mod, attr", sorted(child.FUNCTIONS.values()))
def test_traced_functions_resolve(mod, attr):
    assert callable(getattr(selfsim_module(mod), attr))


@pytest.mark.parametrize("mod, cls, attr", sorted(child.METHODS.values()))
def test_traced_methods_resolve(mod, cls, attr):
    assert callable(getattr(getattr(selfsim_module(mod), cls), attr))


@pytest.mark.parametrize("family", sorted(child.FAMILIES))
def test_family_ops_resolve(family):
    mod, cls = child.FAMILIES[family]
    klass = getattr(selfsim_module(f"instances.{mod}"), cls)
    for op in child.FAMILY_OPS + ("random_element",):
        assert callable(getattr(klass, op)), op


def test_engine_hooks_resolve():
    from selfsim import engine, matrix

    for name in ("decompose", "states_bfs", "product_rule_check", "CapExceeded"):
        assert callable(getattr(engine, name))
    assert callable(matrix.tri_inverse)
    for name in ("transversal", "_decomp_cache", "_prule_cache"):
        assert isinstance(engine.Instance.__dict__[name], cached_property)
