"""Lints: unused imports, orphaned private definitions and global state.

ruff and pyflakes are not dependencies of the project, so these checks
read each module with the standard library's ``ast``.

- Every name a package or test module imports is used in that module.  A
  name counts as used when it appears as an identifier anywhere in the
  module, including inside a string annotation such as ``"np.ndarray"``.
  The package's ``__init__.py`` is exempt: its imports are the package's
  re-exports.
- Every ``_``-prefixed module-level function, class or constant of the
  package is read somewhere in the package, so deleting a caller cannot
  leave its private helpers behind.
- Every public top-level function or class of the package is read by a
  package module or a ``perfbench/`` module, or is listed with its
  reason in :data:`TEST_FACING`, so API that only tests call cannot grow
  back.
- Every field of a package dataclass is read as an attribute by a package
  or ``perfbench/`` module, or is listed with its reason in
  :data:`TEST_FACING_FIELDS`, so a result field that only tests read
  cannot grow back either.
- No package module contains a ``global`` statement: a module-level
  setting that a call can rebind would change every later verdict of the
  process, so settings are passed as arguments instead.
- Every ``print`` in ``cli.py`` outside ``main`` writes to stderr: a
  subcommand returns its report, and ``main`` alone prints it.
- No float literal of magnitude below 1e-6 appears in a package module
  outside a module-level constant with an upper-case name: every cut that
  small is a tolerance, and a tolerance is named once.  Docstrings are
  strings, not float literals, so they may quote the values.
- No package module calls ``round``, ``around`` or ``rint``, as a builtin,
  a numpy function or a method: rounding to ``decimals`` places is a cut
  that the float-literal lint cannot see.
- ``protocols.py`` builds ``KrausSet(`` only inside ``_kraus_set`` and
  ``LoccProtocol(`` only inside ``_local_protocol``: every construction
  returns through the builder that declares its target by the one trace
  rule and gates completeness.
- No package module other than ``seeds.py`` calls ``check_generic(`` or
  ``.canonical(``: a seed's gauge and genericity are decided once, where
  the seed is built, and read from it everywhere else.
- ``oracle.py`` imports only ``SepInstance`` from ``sep`` and nothing from
  ``classify``, ``states`` or ``protocols``: the oracle re-decides what
  the engine decides, so it must not reuse the engine's code.
- ``statefile.py`` makes exactly one ``np.array(`` call, inside
  ``_Entries.decode``: a document's entries are converted in one typed
  array, which is faster than one conversion per matrix.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qutritlocc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

#: Public functions and classes that no package or benchmark module reads,
#: each with the reason it stays.
TEST_FACING = {
    "verify_symmetries": "acceptance criterion 1 checks the nine symmetries with it",
    "permute_state": "relabels parties for the party-permutation invariance tests",
    "permute_vector": "the vector relabeling that permute_state is checked against",
    "ray_distance": "the tests' ray metric for assembled states; simulate_branches "
    "normalizes its branches once and calls its unit-vector core",
}


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


def string_annotation_names(tree: ast.Module) -> set[str]:
    """Every identifier inside a string annotation of the module."""
    names = set()
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every identifier the module reads, plus those in string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | string_annotation_names(tree)


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


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each ``_``-prefixed, non-dunder name a module defines at top level
    (function, class or assigned constant), with its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded identifiers, attribute names
    such as ``module._helper``, and names in string annotations.  Names
    that are only assigned do not count."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read | string_annotation_names(tree)


def orphans(sources: dict[str, str]) -> list[str]:
    """Private top-level definitions that no module of ``sources`` reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    )


def test_orphan_lint_sees_unread_private_definitions():
    a = (
        "_K = 1\n_L: int = 2\n__all__ = []\n\n"
        "def _orphan(): ...\n\ndef _used(): ...\n\nclass _Box: ...\n"
    )
    b = "from a import _used\n\nprint(_used(), a._L)\n"
    assert orphans({"a.py": a, "b.py": b}) == [
        "a.py: _Box (line 9)",
        "a.py: _K (line 1)",
        "a.py: _orphan (line 5)",
    ]


def test_orphan_lint_counts_a_string_annotation_as_read():
    assert orphans({"a.py": "class _T: ...\n\ndef f(a: '_T') -> None: ...\n"}) == []


def test_no_orphaned_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphans(sources) == []


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public function or class a module defines at top level, with
    its line number."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def unread_public(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Public top-level definitions of ``sources`` that neither a module of
    ``sources`` nor one of ``readers`` reads.  An import is not a read, so
    re-exports do not count."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(read_names, [*trees.values(), *map(ast.parse, readers)]))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in public_definitions(tree).items()
        if name not in read
    )


def test_public_lint_sees_definitions_only_tests_call():
    a = "def used(): ...\n\ndef only_tests(): ...\n\nclass Shown: ...\n"
    init = "from .a import only_tests, used\n"
    reader = "from pkg.a import Shown, used\n\nprint(used(), Shown)\n"
    assert unread_public({"a.py": a, "__init__.py": init}, [reader]) == [
        "a.py: only_tests (line 3)"
    ]


def test_public_api_is_read_outside_tests():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    unread = unread_public(sources, readers)
    # "module: name (line n)"; an entry of TEST_FACING that is read now
    # must leave it too
    assert {entry.split()[1] for entry in unread} == set(TEST_FACING), unread


#: Dataclass fields that no package or benchmark module reads, each with the
#: reason it stays.
TEST_FACING_FIELDS = {
    "SymmetrySearchReport.max_match_error": "stays with the ALS search until ROADMAP item 8",
}


def dataclass_fields(tree: ast.Module) -> dict[str, int]:
    """Each field of a top-level dataclass, as ``Class.field``, with its
    line number."""
    return {
        f"{node.name}.{stmt.target.id}": stmt.lineno
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def unread_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Dataclass fields of ``sources`` whose name neither a module of
    ``sources`` nor one of ``readers`` loads as an attribute.  Setting a
    field, or passing it to the constructor, is not a read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {
        node.attr
        for tree in [*trees.values(), *map(ast.parse, readers)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}: {field} (line {line})"
        for module, tree in trees.items()
        for field, line in dataclass_fields(tree).items()
        if field.split(".")[1] not in read
    )


def test_field_lint_sees_a_field_only_tests_read():
    a = (
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Report:\n    shown: int\n    kept: int\n\n"
        "@dataclass\nclass Box:\n    size: int\n\n"
        "class Plain:\n    loose: int\n\n"
        "def make(r, b):\n    b.size = 3\n    return Report(shown=1, kept=2), r.shown\n"
    )
    reader = "from a import Report\n\nprint(Report.kept)\n"
    assert unread_fields({"a.py": a}, [reader]) == ["a.py: Box.size (line 10)"]


def test_dataclass_fields_are_read_outside_tests():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    unread = unread_fields(sources, readers)
    # "module: Class.field (line n)"; an entry of TEST_FACING_FIELDS that is
    # read now must leave it too
    assert {entry.split()[1] for entry in unread} == set(TEST_FACING_FIELDS), unread


def global_statements(source: str) -> list[str]:
    """Each ``global`` statement of a module, with its line and names."""
    return [
        f"line {node.lineno}: {', '.join(node.names)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    ]


def test_global_lint_sees_a_rebinding_setting():
    source = "_TOL = 1e-9\n\ndef set_tol(v):\n    global _TOL\n    _TOL = v\n"
    assert global_statements(source) == ["line 4: _TOL"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_global_statements(path):
    assert global_statements(path.read_text()) == []


def stdout_prints(source: str) -> list[str]:
    """Each ``print`` call outside ``main`` that does not pass
    ``file=sys.stderr``: subcommands return their report for ``main`` to
    print, so only ``main`` writes to stdout."""
    outside_main = [
        top
        for top in ast.parse(source).body
        if not (isinstance(top, ast.FunctionDef) and top.name == "main")
    ]
    return [
        f"line {node.lineno}"
        for top in outside_main
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and not any(
            k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords
        )
    ]


def test_print_lint_sees_a_subcommand_printing_its_result():
    source = (
        "import sys\n\ndef _cmd(args):\n    print('verdict')\n"
        "    print('refused', file=sys.stderr)\n    print('x', file=sys.stdout)\n\n"
        "def main():\n    print('report')\n"
    )
    assert stdout_prints(source) == ["line 4", "line 6"]


def test_only_main_prints_to_stdout_in_the_cli():
    assert stdout_prints((PACKAGE / "cli.py").read_text()) == []


#: Float literals below this magnitude must be named module constants.
SMALL_LITERAL = 1e-6


def unnamed_small_literals(source: str) -> list[str]:
    """Each nonzero float literal of magnitude below :data:`SMALL_LITERAL`
    that is not inside a module-level assignment to upper-case names (a
    leading underscore allowed).  A negative literal is caught through its
    operand."""
    tree = ast.parse(source)
    named = set()
    for top in tree.body:
        if isinstance(top, ast.Assign):
            targets = [n for t in top.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(top, ast.AnnAssign) and top.value is not None:
            targets = [top.target]
        else:
            continue
        if targets and all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
            named |= {id(node) for node in ast.walk(top.value)}
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < SMALL_LITERAL
        and id(node) not in named
    ]


def test_literal_lint_sees_an_unnamed_cut():
    source = (
        '"""Module: a cut of 1e-12 quoted in a docstring is fine."""\n'
        "TOL = 1e-9\n_FLOOR: float = 1e-300\nLO, HI = 1e-150, 1e150\nBIG = 1e-3\n"
        "scale = 1e-8\n\n"
        "def f(x, tol=1e-10):\n"
        '    """Below 1e-12 nothing counts."""\n'
        "    return x > -1e-7 and x < TOL + 2.5e-7 and x != 0.0\n"
    )
    assert unnamed_small_literals(source) == [
        "line 6: 1e-08",
        "line 8: 1e-10",
        "line 10: 1e-07",
        "line 10: 2.5e-07",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unnamed_small_literals(path):
    assert unnamed_small_literals(path.read_text()) == []


#: Names of the calls that round a value to a number of decimals.
ROUNDING = {"round", "around", "rint"}


def named_calls(source: str, names: set[str]) -> list[str]:
    """Each call of a function or method named in ``names``."""
    return [
        f"line {node.lineno}: {name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", ""))) in names
    ]


def test_rounding_lint_sees_a_rounded_key():
    source = (
        "import numpy as np\nfrom numpy import rint\n\n"
        "def key(x):\n    return round(x, 12), np.round(x, 12), np.around(x)\n\n"
        "def snap(x):\n    return rint(x), x.round(3), _round(x), np.floor(x)\n"
    )
    assert named_calls(source, ROUNDING) == [
        "line 5: round",
        "line 5: round",
        "line 5: around",
        "line 8: rint",
        "line 8: round",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_rounding_calls(path):
    assert named_calls(path.read_text(), ROUNDING) == []


#: Each protocol class with the one function of ``protocols.py`` that builds it.
BUILDERS = {"KrausSet": "_kraus_set", "LoccProtocol": "_local_protocol"}


def stray_builds(source: str) -> list[str]:
    """Each call to a class of :data:`BUILDERS` outside its builder."""
    return [
        f"line {node.lineno}: {node.func.id}"
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in BUILDERS
        and not (isinstance(top, ast.FunctionDef) and top.name == BUILDERS[node.func.id])
    ]


def test_builder_lint_sees_a_stray_build():
    source = (
        "def _kraus_set(i, t):\n    return KrausSet((), i, t, 'a')\n\n"
        "def _local_protocol(i, t):\n    return LoccProtocol(i, (), t, 'b')\n\n"
        "def sep_map(i, t):\n    return KrausSet((), i, t, 'c')\n\n"
        "def reach(i, t):\n    return _kraus_set(i, LoccProtocol(i, (), t, 'd'))\n"
    )
    assert stray_builds(source) == ["line 8: KrausSet", "line 11: LoccProtocol"]


def test_protocols_build_only_through_the_builders():
    assert stray_builds((PACKAGE / "protocols.py").read_text()) == []


#: Calls that decide a seed's gauge or genericity, allowed only in ``seeds.py``.
SEED_DECISIONS = {"check_generic", "canonical"}


def test_seed_lint_sees_a_stray_decision():
    source = (
        "from .seeds import check_generic\n\n"
        "def f(seed):\n    return check_generic(seed), seed.genericity\n\n"
        "def g(seed):\n"
        "    return seeds.check_generic(seed.canonical()), _check_generic_file(seed)\n"
    )
    assert named_calls(source, SEED_DECISIONS) == [
        "line 4: check_generic",
        "line 7: check_generic",
        "line 7: canonical",
    ]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "seeds.py"], ids=lambda p: p.name
)
def test_seed_decisions_stay_in_seeds(path):
    assert named_calls(path.read_text(), SEED_DECISIONS) == []


#: What ``oracle.py`` may import from each engine module it audits: the
#: instance type it is handed, and nothing else.
ORACLE_ALLOWED = {"sep": {"SepInstance"}, "classify": set(), "states": set(), "protocols": set()}


def package_module(name: str | None, level: int) -> str | None:
    """The package-relative name of an imported module (``""`` for the
    package itself), or ``None`` for a module outside the package."""
    if level:
        return name or ""
    if name == "qutritlocc" or (name or "").startswith("qutritlocc."):
        return name[len("qutritlocc.") :]
    return None


def engine_imports(source: str) -> list[str]:
    """Each import of an engine module, whole or by a name that
    :data:`ORACLE_ALLOWED` does not allow, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [package_module(alias.name, 0) for alias in node.names]
            found += [f"line {node.lineno}: {m}" for m in modules if m in ORACLE_ALLOWED]
        elif isinstance(node, ast.ImportFrom):
            module = package_module(node.module, node.level)
            for alias in node.names:
                if module == "" and alias.name in ORACLE_ALLOWED:
                    found.append(f"line {node.lineno}: {alias.name}")
                elif module in ORACLE_ALLOWED and alias.name not in ORACLE_ALLOWED[module]:
                    found.append(f"line {node.lineno}: {module}.{alias.name}")
    return found


def test_engine_lint_sees_the_engine_imported():
    source = (
        "import numpy as np\nfrom numpy import linalg\nfrom .pauli import BASIS\n"
        "from .sep import SepInstance, sep_feasible\nfrom . import states, seeds\n"
        "import qutritlocc.classify\n\n"
        "def f():\n    from qutritlocc.protocols import _round\n"
        "    from qutritlocc.sep import SepInstance\n"
    )
    assert engine_imports(source) == [
        "line 4: sep.sep_feasible",
        "line 5: states",
        "line 6: classify",
        "line 9: protocols._round",
    ]


def test_oracle_imports_nothing_of_the_engine_but_the_instance():
    assert engine_imports((PACKAGE / "oracle.py").read_text()) == []


def array_calls(source: str) -> list[str]:
    """Each ``np.array(`` call of a module, with its line and the dotted name
    of the innermost function or class around it (``<module>`` if none)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "np.array":
                found.append(f"line {child.lineno}: {scope or '<module>'}")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_array_lint_sees_every_conversion():
    source = (
        "import numpy as np\n\nZERO = np.array([0.0])\n\n"
        "class _Entries:\n    def decode(self, parts):\n        return np.array(parts)\n\n"
        "def _matrix(rows):\n    return np.asarray(rows), np.array(rows, dtype=float)\n"
    )
    assert array_calls(source) == [
        "line 3: <module>",
        "line 7: _Entries.decode",
        "line 10: _matrix",
    ]


def test_statefile_converts_entries_in_one_array():
    calls = array_calls((PACKAGE / "statefile.py").read_text())
    assert [call.split(": ")[1] for call in calls] == ["_Entries.decode"], calls
