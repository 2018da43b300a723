"""The public surface: every exported name resolves, and the README's
"Library" example runs with the results its comments state."""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import hankelshift
from hankelshift import cli, hankel, measures, numkit, perturbation, shifts

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "module", [hankelshift, numkit, hankel, shifts, measures, perturbation, cli],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_the_five_modules_and_the_version():
    # The package binds its names on first access; the list is theirs.
    modules = (numkit, hankel, shifts, measures, perturbation)
    assert hankelshift.__all__ == [*(n for m in modules for n in m.__all__), "__version__"]
    assert set(hankelshift.__all__) <= set(dir(hankelshift))
    star: dict = {}
    exec("from hankelshift import *", star)
    assert set(star) - {"__builtins__"} == set(hankelshift.__all__)


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _expected(comment: str):
    # The comments write rationals as p/q; read them as Fractions.
    source = re.sub(r"(\d+)/(\d+)", r"Fraction(\1, \2)", comment)
    return eval(source, {"Fraction": Fraction, **vars(hankelshift)})


def test_readme_library_example_runs_and_its_results_hold():
    block = _library_block()
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        if isinstance(stmt, ast.Expr) and comment:
            assert eval(source, namespace) == _expected(comment.strip()), source
            checked += 1
        else:
            exec(source, namespace)
    assert checked >= 3


def _numpy_imports(node: ast.AST, scope: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
    # The enclosing def/class names of every runtime import of numpy under
    # node; `if TYPE_CHECKING:` bodies are not run, so they are skipped.
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
            found += [s for stmt in child.orelse for s in _numpy_imports(stmt, scope)]
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        if any(m == "numpy" or m.startswith("numpy.") for m in modules):
            found.append(scope)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        found += _numpy_imports(child, scope + (child.name,) if named else scope)
    return found


def test_no_runtime_numpy_import_under_the_package():
    package = Path(hankelshift.__file__).parent
    found = [
        (path.stem, *scope)
        for path in sorted(package.rglob("*.py"))
        for scope in _numpy_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def test_no_class_under_the_package_defines_getattr():
    # Each sequence and table holds one stored form and derives the rest as
    # cached properties; a `__getattr__` hook would be a second, lazy form.
    package = Path(hankelshift.__file__).parent
    found = [
        (path.stem, node.name)
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "__getattr__"
            for item in node.body
        )
    ]
    assert found == []
