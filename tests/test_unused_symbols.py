"""No function, class or module-level name in selfsim goes unused.

A definition counts as used when its name appears as a word anywhere else
under src/: in code, or in a string or docstring (the CLI looks up
`from_literal` by name).  Special methods are called by the language and
are not listed.  The names nothing else mentions must be exactly the
allowlist below, so a new unused symbol, or an allowlisted one that comes
into use or goes away, fails here.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "selfsim"

ALLOWED = {
    "engine.MealyAutomaton.simulate": "the automaton round-trip API the README documents",
    "engine.MealyAutomaton.from_json_bytes": "the automaton round-trip API the README documents",
    "ring.SFraction.reduce_mod_pivot_pow": "perfbench/child.py traces it by name",
    "ring.MultiSFraction.mul_g_power": "perfbench/child.py traces it by name",
    "tame.WREATH_TAMENESS_NOTE": "the shipped static remark the README documents",
}


def definitions(tree, prefix):
    """(qualified name, name) of every function and class under the node."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def assignments(module, prefix):
    """(qualified name, name) of every name a module-level statement assigns."""
    for node in module.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield prefix + name.id, name.id


def test_unused_symbols_are_the_allowlist():
    texts = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    words = Counter(w for text in texts.values() for w in re.findall(r"\w+", text))
    defs = []
    for path, text in texts.items():
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(text)
        defs += definitions(tree, module + ".")
        defs += assignments(tree, module + ".")
    per_name = Counter(name for _, name in defs)
    unused = {
        qualified
        for qualified, name in defs
        if not (name.startswith("__") and name.endswith("__")) and words[name] == per_name[name]
    }
    assert unused == set(ALLOWED)
