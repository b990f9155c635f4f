"""Static checks over the package source: no module imports a name it
never uses (a name listed in __all__ counts as used), every public
function, class or method has a caller in the library's live code or is
exported by the package __all__ (the tests do not count as callers), and
so does every private module-level function, class and constant, no
import statement names scipy, the module-level imports keep the command
line and the Monte Carlo path clear of the chain modules they do not run,
no public function repeats a default of a config section, only
cli.Pipeline calls the functions that build the chain, no module but cli
imports cli, and every pytest.approx call of the tests passes abs=."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from adnoise.config import _SECTION_TYPES

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "adnoise"


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
    return sorted(imported - used - exported_names(tree))


def is_all(node):
    """Whether node is a module-level assignment to __all__."""
    return (isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets))


def exported_names(tree):
    """The names listed in tree's __all__, if it has one."""
    return {name for node in tree.body if is_all(node)
            for name in ast.literal_eval(node.value)}


def test_unused_import_check_flags_stale_name():
    tree = ast.parse("import numpy as np\nimport os.path\n"
                     "from .dipoles import Stale, dipole_ladder\n"
                     "from .units import KB\n__all__ = ['KB']\n"
                     "np.zeros(dipole_ladder)\n")
    assert unused_imports(tree) == ["Stale", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


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


def private_constants(node):
    """The names a module-level assignment binds, if they are all private
    (one underscore), else none."""
    if not isinstance(node, ast.Assign):
        return []
    names = [n.id for target in node.targets for n in ast.walk(target)
             if isinstance(n, ast.Name)]
    if all(name.startswith("_") and not name.startswith("__")
           for name in names):
        return names
    return []


def definitions(tree):
    """(name, nodes, private) of each module-level function, class and
    private constant of tree and of each method of its classes, where
    nodes is the code that is live once the name is and private says
    whether the name is a module-level one with a leading underscore.  A
    class's code is its body but for its methods, save the dunder methods
    Python calls for it; each other method is its own definition.  A
    private constant's code is its assigned value."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, [node], node.name.startswith("_")))
        elif isinstance(node, ast.ClassDef):
            own = node.bases + node.keywords + node.decorator_list
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    found.append((item.name, [item], False))
                else:
                    own.append(item)
            found.append((node.name, own, node.name.startswith("_")))
        else:
            found += [(name, [node.value], True)
                      for name in private_constants(node)]
    return found


def live_names(trees, exported):
    """Names the live code of trees reads.  The module-level statements
    other than definitions, imports and __all__ are live, and so is each
    name in exported; a definition whose name a live one reads is live,
    iterated to a fixed point."""
    defined = [d for tree in trees for d in definitions(tree)]
    live = set(exported)
    for tree in trees:
        live |= set().union(*(
            names_used(node) for node in tree.body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                     ast.Import, ast.ImportFrom))
            and not is_all(node) and not private_constants(node)))
    while True:
        reached = set().union(*(names_used(node) for name, nodes, _ in defined
                                if name in live for node in nodes))
        if reached <= live:
            return live
        live |= reached


def unnamed_public_definitions(package):
    """Sorted public functions, classes and methods, and private
    module-level functions, classes and constants, of the modules in the
    package directory that neither the package __init__'s __all__ lists
    nor its live code names.  A per-module __all__ exports nothing, and
    code outside the package, the tests included, reads nothing."""
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(package.glob("*.py"))}
    checked = {name for tree in trees.values()
               for name, _, private in definitions(tree)
               if private or not name.startswith("_")}
    exported = exported_names(trees["__init__.py"])
    return sorted(checked - live_names(trees.values(), exported))


def write_package(root, modules):
    """Directory root holding one file per (file name, source) of modules."""
    root.mkdir()
    for name, text in modules.items():
        (root / name).write_text(text)
    return root


def test_unnamed_public_check_flags_dead_names(tmp_path):
    lib = write_package(tmp_path / "lib", {
        "__init__.py": "from .core import run\n__all__ = ['run']\n",
        "core.py": "__all__ = ['run', 'dead']\n"
                   "def run(): return Box().size()\n"
                   "def dead(): return dead()\n"
                   "class Box:\n    def __init__(self): self._own()\n"
                   "    def size(self): pass\n    def stale(self): pass\n"
                   "    def _own(self): pass\n"})
    assert unnamed_public_definitions(lib) == ["dead", "stale"]


def test_unnamed_public_check_ignores_tests_and_dead_callers(tmp_path):
    # oracle has a caller only in the test tree; estimate calls route, and
    # nothing in the library calls either.
    lib = write_package(tmp_path / "lib", {
        "__init__.py": "from .core import run\n__all__ = ['run']\n",
        "core.py": "def run(): return 1\ndef oracle(): return 2\n"
                   "def estimate(): return route()\n"
                   "def route(): return 3\n"})
    write_package(tmp_path / "tests", {
        "test_core.py": "from lib.core import estimate, oracle\n"
                        "def test_core(): assert oracle() < estimate()\n"})
    assert unnamed_public_definitions(lib) == ["estimate", "oracle", "route"]


def test_unnamed_check_flags_dead_private_names(tmp_path):
    # _helper and _USED are read by live code, _own by its class's live
    # __init__; _orphan only by itself, _Gone by nothing, _STALE_CELLS only
    # by a test, _LATE only by the dead _orphan, and _B of a pair never.
    lib = write_package(tmp_path / "lib", {
        "__init__.py": "from .core import run\n__all__ = ['run']\n",
        "core.py": "_USED = 2\n_STALE_CELLS = 1 << 16\n_A, _B = 1, 2\n"
                   "_LATE = 3\n"
                   "def run(): return _helper() + _A + Box().n\n"
                   "def _helper(): return _USED\n"
                   "def _orphan(): return _orphan() + _LATE\n"
                   "class _Gone: pass\n"
                   "class Box:\n    def __init__(self): self.n = self._own()\n"
                   "    def _own(self): return 1\n"})
    write_package(tmp_path / "tests", {
        "test_core.py": "from lib.core import _STALE_CELLS\n"
                        "def test_core(): assert _STALE_CELLS\n"})
    assert unnamed_public_definitions(lib) == [
        "_B", "_Gone", "_LATE", "_STALE_CELLS", "_orphan"]


def test_every_public_definition_is_named():
    assert unnamed_public_definitions(SRC) == []


# The functions that build the chain from a configuration.
ASSEMBLY = {"auto_grid", "solve", "coupling_matrix", "dipole_ladder",
            "build_rate_matrix", "transition_rate"}


def called_name(call):
    """The name a call calls: f in f(...) and in m.f(...)."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def assembly_calls(package, names=ASSEMBLY, home=("cli.py", "Pipeline")):
    """(file, line, name) of each call of a function named in names in the
    modules of package outside the class home[1] of the module home[0],
    the one assembler of the chain."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = {id(node) for cls in tree.body
               if path.name == home[0] and isinstance(cls, ast.ClassDef)
               and cls.name == home[1] for node in ast.walk(cls)}
        found += [(path.name, node.lineno, called_name(node))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in own
                  and called_name(node) in names]
    return sorted(found)


def test_assembly_check_flags_calls_outside_the_pipeline(tmp_path):
    lib = write_package(tmp_path / "lib", {
        "cli.py": "class Pipeline:\n"
                  "    def states(self): return boundstates.solve(1)\n"
                  "def other(): return dipole_ladder(2)\n",
        "check.py": "from . import boundstates, phonons\n"
                    "def run(r): phonons.stationary_distribution(r)\n"
                    "def rebuild(p): return boundstates.solve(p)\n"})
    assert assembly_calls(lib) == [("check.py", 3, "solve"),
                                   ("cli.py", 3, "dipole_ladder")]


def test_pipeline_is_the_only_assembler():
    assert assembly_calls(SRC) == []


def imported_modules(tree, package="adnoise"):
    """(line, module) of every import statement in tree, at any depth;
    a relative import is resolved inside package, and `from . import x`
    and `from package import x` name the module package.x."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ((package + "." + node.module if node.module else package)
                    if node.level else node.module)
            if base == package:
                found += [(node.lineno, base + "." + a.name)
                          for a in node.names]
            else:
                found.append((node.lineno, base))
    return found


def module_level_imports(tree, package="adnoise"):
    """Sibling modules of package that tree imports when it is loaded,
    that is outside a function body."""
    names, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {name.split(".")[1]
                      for _, name in imported_modules(node, package)
                      if name.startswith(package + ".")}
        todo += ast.iter_child_nodes(node)
    return names


def import_closure(graph, *starts):
    """Every module that loading the modules starts loads, through graph."""
    seen, todo = set(), list(starts)
    while todo:
        for dep in graph.get(todo.pop(), ()):
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_import_checks_resolve_relative_and_nested_imports():
    tree = ast.parse("import numpy as np\nfrom . import errors, units\n"
                     "from .phonons import RateMatrix\n"
                     "class A:\n    from . import tables\n"
                     "def f():\n    from . import spectrum\n"
                     "    import scipy.linalg\n"
                     "    from adnoise import config\n")
    assert [m for _, m in imported_modules(tree)] == [
        "numpy", "adnoise.errors", "adnoise.units", "adnoise.phonons",
        "adnoise.tables", "adnoise.spectrum", "scipy.linalg",
        "adnoise.config"]
    assert module_level_imports(tree) == {"errors", "units", "phonons",
                                          "tables"}
    graph = {"cli": {"config"}, "config": {"units"}, "units": {"errors"},
             "spectrum": {"phonons"}, "__init__": {"tables"}}
    assert import_closure(graph, "__init__", "cli") == {
        "config", "units", "errors", "tables"}


def cli_imports(package):
    """(file, line) of each import of adnoise.cli, at any depth, in the
    modules of package other than cli.py: the library never runs the
    command line."""
    return sorted((path.name, line) for path in sorted(package.glob("*.py"))
                  if path.name != "cli.py"
                  for line, module in imported_modules(
                      ast.parse(path.read_text()))
                  if module.split(".")[:2] == ["adnoise", "cli"])


def test_cli_import_check_flags_library_imports(tmp_path):
    lib = write_package(tmp_path / "lib", {
        "cli.py": "from . import check\nfrom .cli import main\n",
        "check.py": "import numpy\n"
                    "def run():\n    from .cli import Pipeline\n"
                    "    return Pipeline\n",
        "deep.py": "class A:\n    def f(self):\n"
                   "        import adnoise.cli as c\n",
        "flat.py": "from adnoise import cli, config\n",
        "near.py": "from . import client\nimport adnoise.cli_tools\n"
                   "from .config import cli\n"})
    assert cli_imports(lib) == [("check.py", 3), ("deep.py", 3),
                                ("flat.py", 1)]


def test_library_does_not_import_the_command_line():
    assert cli_imports(SRC) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # boundstates._load_flapack loads the one LAPACK extension from its
    # file; no import statement at any depth may pull in scipy itself.
    found = imported_modules(ast.parse(path.read_text()))
    assert [(line, m) for line, m in found
            if m.split(".")[0] == "scipy"] == []


def test_module_level_imports_keep_chain_modules_out():
    graph = {p.stem: module_level_imports(ast.parse(p.read_text()))
             for p in SRC.glob("*.py")}
    # Loading a module loads the package's __init__ first.
    chain = {"boundstates", "dipoles", "phonons", "spectrum", "trapnoise"}
    assert import_closure(graph, "__init__", "cli") & chain == set()
    assert import_closure(graph, "__init__", "trapnoise") & {
        "spectrum", "phonons", "boundstates"} == set()


def repeated_defaults(tree, names):
    """Sorted 'function(parameter)' of the public functions and public
    methods of tree whose parameter in names has a default other than
    None.  None is left alone: it means "not given", as in
    config.override."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{item.name}", item)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)]
    found = []
    for name, fn in functions:
        if any(part.startswith("_") for part in name.split(".")):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        pairs = list(zip(positional[len(positional) - len(a.defaults):],
                         a.defaults)) + list(zip(a.kwonlyargs, a.kw_defaults))
        found += [f"{name}({arg.arg})" for arg, default in pairs
                  if arg.arg in names and default is not None
                  and not (isinstance(default, ast.Constant)
                           and default.value is None)]
    return sorted(found)


def test_repeated_default_check_flags_second_copies():
    tree = ast.parse("def grid(g, omega_min=1e-3, seed=None, n=4): pass\n"
                     "def _own(omega_max=1.0): pass\n"
                     "class Box:\n"
                     "    def size(self, *, image_factor=2.0, extent): pass\n"
                     "    def _hidden(self, extent=1.0): pass\n")
    names = {"omega_min", "omega_max", "seed", "image_factor", "extent"}
    assert repeated_defaults(tree, names) == ["Box.size(image_factor)",
                                              "grid(omega_min)"]


def test_config_section_defaults_live_only_in_config():
    # The section dataclasses hold the only copy of each default.
    names = {f.name for make in _SECTION_TYPES.values() for f in fields(make)}
    found = {p.name: repeated_defaults(ast.parse(p.read_text()), names)
             for p in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def calls_approx(call):
    """Whether call calls pytest.approx, or approx by its bare name."""
    if isinstance(call.func, ast.Attribute):
        return (call.func.attr == "approx"
                and getattr(call.func.value, "id", None) == "pytest")
    return called_name(call) == "approx"


def approx_calls_without_abs(tree):
    """Line numbers of the approx calls in tree that pass no abs=.
    pytest's default abs=1e-12 swamps any relative tolerance on values in
    J, m, C m or C^2 m^2, so every call states its own."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and calls_approx(node)
            and not any(k.arg == "abs" for k in node.keywords)]


def test_approx_check_flags_a_bare_call():
    tree = ast.parse("assert x == pytest.approx(1e-30)\n"
                     "assert x == pytest.approx(1e-30, rel=1e-9)\n"
                     "assert x == pytest.approx(1e-30, rel=1e-9, abs=0.0)\n"
                     "assert x == pytest.approx(\n    0.0, abs=1e-40)\n"
                     "assert x == approx(1e-30)\n"
                     "assert x == np.approx(1e-30)\n")
    assert approx_calls_without_abs(tree) == [1, 2, 6]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_approx_call_passes_abs(path):
    assert approx_calls_without_abs(ast.parse(path.read_text())) == []
