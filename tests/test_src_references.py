"""Every public name of src/boselab has a caller in src/boselab.

The package keeps in src/ only what a runner reaches; a function, class
or method that only tests call belongs next to the tests (reference
computations go to tests/oracles.py).  The walk below collects each
module's public module-level functions and classes, and the public
methods and properties of those classes, with ast, and fails for a name
that no src/ module references anywhere but at its own definition.  The
exceptions are listed in ALLOWED.

A reference is matched by its bare name.  Attribute reads rooted at a
module bound by ``import`` (np.trace, np.linalg.eigh, math.comb) name
that module's functions, not the package's, so they do not count; a
package module imported with ``from . import`` (_grid.sector_tables)
does.  A name that src/ also reads on another object is still invisible
to the walk: a method called copy counts as called wherever an array's
.copy() is.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "boselab"

# names that no src/ module calls, grouped by the reason each stays
ALLOWED = {
    # entry points of library callers: the potential constructors
    "potentials.gaussian_well",
    "potentials.mixed_sign",
    # paper statements that no runner checks yet (criteria 12 and 13,
    # the lens energy)
    "marginals.mollifier_delta_test",
    "nbody.spectral_cutoff",
    "potentials.lens_damped_potential",
    "lens.intertwine_energy_check",
}


def _modules(tree):
    """The names that ``import x`` and ``import x as y`` bind in a module."""
    return {alias.asname or alias.name.split(".")[0]
            for sub in ast.walk(tree) if isinstance(sub, ast.Import)
            for alias in sub.names}


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _names(node, modules):
    """The names a node reads: bare names, attributes not rooted at one
    of the imported modules, and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            root = _root(sub)
            if not (isinstance(root, ast.Name) and root.id in modules):
                yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def _definitions(tree):
    """(qualified name, node) of each public module-level function or
    class, and of each public method or property of such a class."""
    for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in _public(node.body, ast.FunctionDef):
                yield f"{node.name}.{method.name}", method


def _unreferenced():
    """module.name of every public definition that no src/ module reads
    outside the definition itself."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    modules = {stem: _modules(tree) for stem, tree in trees.items()}
    counts = Counter(name for stem, tree in trees.items()
                     for name in _names(tree, modules[stem]))
    return sorted(
        f"{module}.{name}" for module, tree in trees.items()
        for name, node in _definitions(tree)
        if counts[node.name]
        == Counter(_names(node, modules[module]))[node.name])


def test_every_public_name_has_a_caller_in_src():
    unreferenced = _unreferenced()
    assert [name for name in unreferenced if name not in ALLOWED] == []


def test_the_allowlist_holds_no_stale_entry():
    # an entry whose name gained a caller, or left src/, is dropped here
    assert sorted(ALLOWED) == [name for name in _unreferenced()
                               if name in ALLOWED]


def test_module_attributes_are_not_references():
    # np.trace names numpy's function, and _grid.trace the package's
    tree = ast.parse("import numpy as np\nimport os.path\n"
                     "from . import grid as _grid\n"
                     "np.trace(a)\nnp.linalg.trace(a)\nos.path.join(b)\n"
                     "_grid.trace(a)\nstate.copy()\n")
    names = Counter(_names(tree, _modules(tree)))
    assert _modules(tree) == {"np", "os"}
    assert names["trace"] == 1 and names["copy"] == 1
    assert names["linalg"] == names["join"] == 0
