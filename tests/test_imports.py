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
