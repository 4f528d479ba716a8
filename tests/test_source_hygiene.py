"""Source hygiene: no module of the package imports a name it never uses.

`__init__.py` is exempt, since its imports are the package's public
namespace. Only the standard library is used, so the check runs wherever the
suite does.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "minsurf4"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's imports and never read anywhere in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_unused_and_used_names():
    source = "import os\nimport numpy as np\nfrom .poly import horner, gcd\nnp.zeros(gcd)\n"
    assert unused_imports(source) == [(1, "os"), (3, "horner")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports names it never uses: " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )
