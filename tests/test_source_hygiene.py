"""Source hygiene: no module of the package imports a name it never uses,
and every module-level name and public method is referenced somewhere else.

A module-level name (function, class or assignment; `__version__` excepted)
must be read, imported or reached as an attribute by some top-level
statement of `src/` or `tests/` other than its own definition. A public
module-level function must also be used by the package itself, apart from
a listed few: code that only tests run lives in `tests/`. A method of a
module-level class whose name does not start with `_` must be read or
reached as an attribute somewhere in `src/` or `tests/` outside its own
body; the match is by name alone, whatever the receiver. One record
mechanism: only `report.Immutable` defines `__setattr__`, and only
`report.Record` and the records whose artifact differs in shape from their
fields define `to_dict`. Only the standard library is used, so the check
runs wherever the suite does.
"""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "minsurf4"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


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


def defined_names(tree):
    """{name: defining top-level statement} of functions, classes and
    assignments at module level."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        out[node.id] = stmt
    return out


def referenced_names(tree):
    """(top-level statement, name) for each name read, imported or used as
    an attribute inside that statement."""
    out = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((stmt, node.id))
            elif isinstance(node, ast.Attribute):
                out.append((stmt, node.attr))
            elif isinstance(node, ast.ImportFrom):
                out.extend((stmt, alias.name) for alias in node.names)
    return out


def unreferenced_names(trees):
    """Sorted (module, name) defined at module level in trees[module] and
    referenced by no top-level statement but its own definition."""
    refs = {}
    for tree in trees.values():
        for stmt, name in referenced_names(tree):
            refs.setdefault(name, set()).add(id(stmt))
    out = []
    for module, tree in trees.items():
        for name, stmt in defined_names(tree).items():
            if name != "__version__" and not refs.get(name, set()) - {id(stmt)}:
                out.append((module, name))
    return sorted(out)


def test_the_check_sees_unreferenced_names():
    trees = {
        "a": ast.parse("X = 1\nY = 2\n\ndef f():\n    return f() + X\n\nclass C:\n    pass\n"),
        "b": ast.parse("from a import C\nimport a\na.Y\n"),
    }
    assert unreferenced_names(trees) == [("a", "f")]


def test_every_module_level_name_is_referenced():
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    unused = [(module, name) for module, name in unreferenced_names(trees) if module.startswith("src")]
    assert not unused, "module-level names nothing references: " + ", ".join(
        f"{module}:{name}" for module, name in unused
    )


def public_methods(tree):
    """(class name, method def) for each method of a module-level class
    whose name does not start with `_`."""
    return [
        (cls.name, stmt)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_")
    ]


def references(node):
    """Counter of the names read or reached as an attribute inside node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    )


def unreferenced_methods(trees):
    """Sorted (module, "Class.method") for each public method that nothing
    references outside its own body."""
    refs = Counter()
    for tree in trees.values():
        refs.update(references(tree))
    out = []
    for module, tree in trees.items():
        for cls, method in public_methods(tree):
            if refs[method.name] == references(method)[method.name]:
                out.append((module, f"{cls}.{method.name}"))
    return sorted(out)


def test_the_check_sees_unreferenced_methods():
    trees = {
        "a": ast.parse(
            "class C:\n"
            "    def used(self):\n        return self.recursive()\n\n"
            "    def recursive(self):\n        return self.recursive()\n\n"
            "    def idle(self):\n        pass\n\n"
            "    def _private(self):\n        pass\n"
        ),
        "b": ast.parse("from a import C\nC().used()\n"),
    }
    assert unreferenced_methods(trees) == [("a", "C.idle")]
    trees["b"] = ast.parse("from a import C\n")
    assert unreferenced_methods(trees) == [("a", "C.idle"), ("a", "C.used")]


def test_every_public_method_is_referenced():
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    unused = [(module, name) for module, name in unreferenced_methods(trees) if module.startswith("src")]
    assert not unused, "public methods nothing references: " + ", ".join(
        f"{module}:{name}" for module, name in unused
    )


def second_data_model(source):
    """(line, mark) for each read of an attribute named `exact` and each
    module-level APPROX_TOL or CLUSTER_TOL: the marks of an approximate data
    model beside the exact one."""
    tree = ast.parse(source)
    reads = [(node.lineno, ".exact") for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "exact"]
    tols = [(stmt.lineno, name) for name, stmt in defined_names(tree).items() if name in ("APPROX_TOL", "CLUSTER_TOL")]
    return sorted(reads + tols)


def test_the_guard_sees_a_second_data_model():
    source = "APPROX_TOL = 1e-7\n\ndef f(p, exact):\n    return p.exact or exact\n"
    assert second_data_model(source) == [(1, "APPROX_TOL"), (4, ".exact")]


def test_one_exact_data_model():
    found = [
        f"{path.name}:{line} {mark}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, mark in second_data_model(path.read_text(encoding="utf-8"))
    ]
    assert not found, "float coefficient data must not come back: " + ", ".join(found)


def classes_defining(source, name):
    """Sorted (line, class) for each class whose body defines `name`, by def
    or by assignment, at any nesting depth."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            if name in names:
                out.append((cls.lineno, cls.name))
    return sorted(out)


def test_the_check_sees_classes_defining_a_method():
    source = (
        "class A:\n    def __setattr__(self, n, v):\n        pass\n\n"
        "class B:\n    __setattr__ = object.__setattr__\n\n"
        "def f():\n    class C:\n        def to_dict(self):\n            pass\n    return C\n\n"
        "class D:\n    def setattr(self):\n        self.__setattr__ = 1\n"
    )
    assert classes_defining(source, "__setattr__") == [(1, "A"), (5, "B")]
    assert classes_defining(source, "to_dict") == [(9, "C")]


def _definers(name):
    return {
        (path.name, cls)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, cls in classes_defining(path.read_text(encoding="utf-8"), name)
    }


def test_one_immutability_guard():
    assert _definers("__setattr__") == {("report.py", "Immutable")}


# The records whose artifact differs in shape from their fields.
TO_DICT_OVERRIDES = {
    ("metric.py", "CompletenessReport"),
    ("nonorientable.py", "MoebiusReport"),
}


def test_one_serializer():
    assert _definers("to_dict") == {("report.py", "Record")} | TO_DICT_OVERRIDES


def numpy_imports(source):
    """Sorted (line, scope) for each import of numpy or a numpy submodule:
    scope is the qualified name of the enclosing function, such as
    "LaurentPoly.eval", or None for an import that runs when the module is
    imported."""
    out = []

    def visit(node, names, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, names + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                visit(child, names + [child.name], in_function)
            else:
                if isinstance(child, ast.Import):
                    modules = [alias.name for alias in child.names]
                elif isinstance(child, ast.ImportFrom):
                    modules = [child.module or ""]
                else:
                    modules = []
                if any(m.split(".")[0] == "numpy" for m in modules):
                    out.append((child.lineno, ".".join(names) if in_function else None))
                visit(child, names, in_function)

    visit(ast.parse(source), [], False)
    return sorted(out, key=lambda item: item[0])


def test_the_check_sees_numpy_imports():
    source = (
        "import numpy as np\n"
        "if True:\n    from numpy import zeros\n"
        "class C:\n    import numpy.linalg\n\n"
        "    def eval(self):\n        import numpy\n\n"
        "def f():\n    def g():\n        import numpy\n    import math\n"
    )
    assert numpy_imports(source) == [(1, None), (3, None), (5, None), (8, "C.eval"), (12, "f.g")]


# The only functions that evaluate numpy arrays: the array branch of the
# float kernel, Laurent evaluation and the nonorientable pipeline's circle
# scans, sandwich and mesh. Every other command, `mesh` included, runs on
# Python scalars and never loads numpy.
NUMPY_IMPORTERS = {
    ("poly.py", "horner"),
    ("laurent.py", "LaurentPoly.eval"),
    ("nonorientable.py", "_circle"),
    ("nonorientable.py", "unit_circle_min"),
    ("nonorientable.py", "_circle_extrema"),
    ("nonorientable.py", "sandwich_check"),
    ("nonorientable.py", "half_domain_mesh"),
}


def test_numpy_is_imported_only_inside_the_array_functions():
    found = {
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, scope in numpy_imports(path.read_text(encoding="utf-8"))
    }
    assert not {name for name, scope in found if scope is None}, "numpy imported at module level"
    assert found == NUMPY_IMPORTERS


def uncalled_functions(trees):
    """Sorted (module, name) of the public module-level functions in trees
    that no top-level statement but their own definition reads as a name or
    reaches as an attribute; the match is by name alone, and docstrings,
    being strings, never count."""
    refs = {}
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.setdefault(node.id, set()).add(id(stmt))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, set()).add(id(stmt))
    return sorted(
        (module, stmt.name)
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_")
        and not refs.get(stmt.name, set()) - {id(stmt)}
    )


def test_the_check_sees_uncalled_functions():
    trees = {
        "a": ast.parse(
            '"""Only g is called: f and h are named in this docstring alone."""\n\n'
            "def f():\n    return f()\n\n"
            "def g():\n    pass\n\n"
            "def h():\n    pass\n\n"
            "def _private():\n    pass\n\n"
            "class C:\n    def run(self):\n        return g()\n"
        ),
        "b": ast.parse("import a\n\n\ndef k():\n    return a.h\n"),
    }
    assert uncalled_functions(trees) == [("a", "f"), ("b", "k")]


# Public functions in the package that no code of the package calls, and why
# each stays: the count checks wait for the commands of ROADMAP directions 5
# (verify-r4) and 6 (the nonorientable gauss-map stage); the other two are
# library entry points. Test-only code belongs in tests/oracles.py.
UNCALLED_IN_PACKAGE = {
    ("gaussmap.py", "r4_gauss_check"): "ROADMAP direction 5",
    ("gaussmap.py", "nonorientable_check"): "ROADMAP direction 6",
    ("nonorientable.py", "check_weierstrass_symmetry"): "ROADMAP direction 6",
    ("nonorientable.py", "residue_condition"): "ROADMAP direction 6",
    ("weierstrass.py", "data_from_phis"): "the inverse of phis_from_data, run by the weierstrass-exact benchmark",
    ("weierstrass.py", "immerse"): "the closed-form immersion; export_mesh runs it as _immerse with its poles",
}


def test_package_functions_are_called_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert set(uncalled_functions(trees)) == set(UNCALLED_IN_PACKAGE)
