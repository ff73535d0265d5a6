"""The modules every CLI process imports stay small.

Records under src/selfsim are named tuples, so no module there imports
`dataclasses` (which brings in `inspect`, and with it `ast`, `dis` and
`tokenize`) or `typing`.  The AST scan names any such import; the
subprocess checks that importing the CLI, with no site packages, loads no
`dataclasses` through any other route.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BANNED = {"dataclasses", "typing"}


def imported_modules(tree):
    """The top-level package of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_no_module_imports_dataclasses_or_typing():
    found = {
        (str(path.relative_to(SRC)), name)
        for path in sorted((SRC / "selfsim").rglob("*.py"))
        for name in imported_modules(ast.parse(path.read_text()))
        if name in BANNED
    }
    assert found == set()


def test_cli_import_loads_no_dataclasses():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import selfsim.cli; "
        "print('dataclasses' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"
