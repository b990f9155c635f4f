"""Static checks over the package source: no module imports a name it
never uses (a name listed in __all__ counts as used), and no public
function, class or method goes unnamed outside its own definition."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "adnoise"
TESTS = Path(__file__).resolve().parent


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


def public_definitions(tree):
    """Public module-level functions and classes of tree, and the public
    methods of its classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return {name for name in found if not name.startswith("_")}


def names_used(tree, inside=frozenset()):
    """Names read as a bare name or an attribute in tree, except where a
    definition of that name encloses the reference."""
    used = set()
    if isinstance(tree, ast.Name) and tree.id not in inside:
        used.add(tree.id)
    elif isinstance(tree, ast.Attribute) and tree.attr not in inside:
        used.add(tree.attr)
    if isinstance(tree, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {tree.name}
    for child in ast.iter_child_nodes(tree):
        used |= names_used(child, inside)
    return used


def unnamed_public_definitions(defined, users):
    """Sorted public names defined in the trees of defined that no tree in
    users names outside their own definition."""
    public = set().union(*map(public_definitions, defined))
    return sorted(public - set().union(*map(names_used, users)))


def test_unnamed_public_check_flags_dead_names():
    lib = ast.parse("def used(): pass\ndef dead(): return dead()\n"
                    "class Box:\n    def size(self): pass\n"
                    "    def stale(self): pass\n    def _own(self): pass\n")
    user = ast.parse("import lib\nlib.used(lib.Box().size())\n")
    assert unnamed_public_definitions([lib], [lib, user]) == ["dead", "stale"]


def test_every_public_definition_is_named():
    src = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    tests = [ast.parse(p.read_text()) for p in sorted(TESTS.glob("*.py"))]
    assert unnamed_public_definitions(src, src + tests) == []
