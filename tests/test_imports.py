"""Lint: every name a package module imports is used in that module.

ruff and pyflakes are not dependencies of the project, so this check reads
each module with the standard library's ``ast``.  A name counts as used
when it appears as an identifier anywhere in the module, including inside
a string annotation such as ``"np.ndarray"``.  ``__init__.py`` is exempt:
its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qutritlocc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Every identifier the module reads, plus those in string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )


def test_lint_sees_an_unused_import():
    source = "from math import pi, tau\nimport os\n\nprint(tau, os.sep)\n"
    assert unused_imports(source) == ["pi (line 1)"]


def test_lint_counts_a_string_annotation_as_use():
    assert unused_imports("from x import T\n\ndef f(a: 'T') -> None: ...\n") == []


def test_package_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
