"""Every public name of src/boselab has a caller in src/boselab.

The package keeps in src/ only what a runner reaches; a function, class
or method that only tests call belongs next to the tests (reference
computations go to tests/oracles.py).  The walk below collects each
module's public module-level functions and classes, and the public
methods and properties of those classes, with ast, and fails for a name
that no src/ module references anywhere but at its own definition.  The
exceptions are listed in ALLOWED.

A reference is matched by its bare name, so a name that src/ also reads
on another object is invisible to the walk: a method called trace or
copy counts as called wherever numpy's np.trace or an array's .copy()
is.
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


def _names(node):
    """The names a node reads: bare names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
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
    counts = Counter(name for tree in trees.values() for name in _names(tree))
    return sorted(
        f"{module}.{name}" for module, tree in trees.items()
        for name, node in _definitions(tree)
        if counts[node.name] == Counter(_names(node))[node.name])


def test_every_public_name_has_a_caller_in_src():
    unreferenced = _unreferenced()
    assert [name for name in unreferenced if name not in ALLOWED] == []


def test_the_allowlist_holds_no_stale_entry():
    # an entry whose name gained a caller, or left src/, is dropped here
    assert sorted(ALLOWED) == [name for name in _unreferenced()
                               if name in ALLOWED]
