"""Static checks over the package source: no module imports a name it
never uses (a name listed in __all__ counts as used)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "adnoise"


def unused_imports(tree):
    """Sorted names bound by an import in tree and never read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_check_flags_stale_name():
    tree = ast.parse("import numpy as np\nimport os.path\n"
                     "from .dipoles import Stale, dipole_ladder\n"
                     "from .units import KB\n__all__ = ['KB']\n"
                     "np.zeros(dipole_ladder)\n")
    assert unused_imports(tree) == ["Stale", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []
