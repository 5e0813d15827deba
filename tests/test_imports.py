import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "monosde"


def _unused_imports(source: str) -> list:
    """The names a module imports and never references, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_guard_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom x import a, b as c\nprint(a, os)\n"
    assert _unused_imports(source) == ["math", "c"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in _SRC.glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    assert _unused_imports((_SRC / module).read_text()) == []


def _private_imports(source: str) -> list:
    """The single-underscore names a module imports from a module of the
    package, in import order; dunders such as __version__ are public."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "monosde"
        ):
            names += [
                alias.name for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            ]
    return names


def test_the_guard_finds_a_private_import():
    source = (
        "from . import __version__\nfrom .core import _a, b\n"
        "from monosde.solver import _c\nfrom numpy import _d\n"
    )
    assert _private_imports(source) == ["_a", "_c"]


# acceptance.py checks the estimators' per-path samples, so it reads their
# private chunk functions; every other module uses the public names only
@pytest.mark.parametrize(
    "module", sorted(p.name for p in _SRC.glob("*.py") if p.name != "acceptance.py")
)
def test_no_module_imports_a_private_name(module):
    assert _private_imports((_SRC / module).read_text()) == []


def _linalg_solve_names(source: str) -> list:
    """The references a module makes to numpy.linalg's solve and its
    LinAlgError, as linalg.<name>, in walk order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            if node.value.attr == "linalg" and node.attr in ("solve", "LinAlgError"):
                names.append(f"linalg.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            names += [
                f"linalg.{alias.name}" for alias in node.names
                if alias.name in ("solve", "LinAlgError")
            ]
    return names


def test_the_guard_finds_a_linalg_solve():
    source = (
        "from numpy.linalg import solve, norm\n"
        "try:\n    x = np.linalg.solve(a, b)\nexcept np.linalg.LinAlgError:\n    x = None\n"
        "y = np.linalg.norm(x)\n"
    )
    assert sorted(_linalg_solve_names(source)) == [
        "linalg.LinAlgError", "linalg.solve", "linalg.solve"
    ]


# solver.solve_paths is the one small solve: a singular row becomes NaN, and
# every other module leaves that to the checks its caller already has
@pytest.mark.parametrize(
    "module", sorted(p.name for p in _SRC.glob("*.py") if p.name != "solver.py")
)
def test_no_module_but_solver_names_linalg_solve(module):
    assert _linalg_solve_names((_SRC / module).read_text()) == []
