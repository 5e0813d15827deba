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


def _pool_imports(source: str) -> list:
    """The modules of the multiprocessing and concurrent packages a module
    imports, as written, in walk order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] in ("multiprocessing", "concurrent")]


def test_the_guard_finds_a_process_pool_import():
    source = (
        "import os, multiprocessing.context\n"
        "def f():\n    from concurrent.futures import ProcessPoolExecutor\n"
    )
    assert _pool_imports(source) == ["multiprocessing.context", "concurrent.futures"]


# run_paths forks its workers itself: a pool's imports would cost the main
# process and every worker their time and memory
@pytest.mark.parametrize("module", sorted(p.name for p in _SRC.glob("*.py")))
def test_no_module_imports_a_process_pool(module):
    assert _pool_imports((_SRC / module).read_text()) == []


def _small_products(source: str) -> list:
    """(function, what) for each np.einsum call and each @ in a module, the
    function named by its dotted path within the module ("" at module
    level), in source order."""
    found = []

    def visit(node, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = f"{path}.{node.name}" if path else node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "einsum") or (
                isinstance(f, ast.Name) and f.id == "einsum"
            ):
                found.append((path, "einsum"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((path, "@"))
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(ast.parse(source), "")
    return found


def test_the_guard_finds_an_einsum_and_a_matmul():
    source = (
        "import numpy as np\nfrom numpy import einsum\nx = a @ b\n"
        "class C:\n    def f(self):\n        def g():\n            return np.einsum('ij->i', a)\n"
        "        y = einsum('i->', b)\n        y @= c\n"
    )
    assert _small_products(source) == [
        ("", "@"), ("C.f.g", "einsum"), ("C.f", "einsum"), ("C.f", "@"),
    ]


#: the functions that may call np.einsum or use @: each contracts a whole
#: path or lattice (an index of length N or of the s-lattice), or one matrix
#: pair, where no batch of small matrices is stepped
_WHOLE_ARRAY_PRODUCTS = {
    "core.py": {"History.cum_ito"},
    "malliavin.py": {"malliavin_matrix", "_shift_integrals", "RepresentationParts.predicted"},
    "models.py": {"_ou_closed_form.state"},
    "shiftlab.py": {"_log_dd"},  # the Girsanov sum over the path
    "variational.py": {"JacobianBundle.inverse_defects", "JacobianBundle.flow_between"},
}


# the per-step small-matrix algebra goes through smallmat.contract, which
# keeps the batch axis contiguous and is the one product at d = m = 1
@pytest.mark.parametrize("module", sorted(p.name for p in _SRC.glob("*.py")))
def test_per_step_products_go_through_contract(module):
    allowed = _WHOLE_ARRAY_PRODUCTS.get(module, set())
    found = _small_products((_SRC / module).read_text())
    assert [(fn, what) for fn, what in found if fn not in allowed] == []
    # an allowed function that no longer needs it leaves the list
    assert allowed <= {fn for fn, _ in found}
